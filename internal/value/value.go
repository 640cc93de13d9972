// Package value implements the runtime values of the paper's Figure 4
//
//	v ::= c | UNSPECIFIED | UNDEFINED | PRIMOP:p | ESCAPE:(α,κ)
//	    | CLOSURE:(α,L,ρ) | VEC:(α0,...)
//
// together with the store σ (a finite map from locations to values) and the
// continuation forms κ. Pairs and strings are included as ordinary library
// data; the paper leaves them to the standard library.
package value

import (
	"math/big"

	"tailspace/internal/ast"
	"tailspace/internal/env"
)

// Value is a runtime value.
type Value interface{ isValue() }

// Bool is TRUE or FALSE.
type Bool bool

// Num is NUM:z, an exact integer of unlimited precision.
type Num struct{ Int *big.Int }

// Sym is SYM:I.
type Sym string

// Str is a string value.
type Str string

// Char is a character value.
type Char rune

// Null is the empty list.
type Null struct{}

// Unspecified is the UNSPECIFIED value produced by assignments.
type Unspecified struct{}

// Undefined is the UNDEFINED value; reading a location holding it sticks the
// machine (it marks letrec variables before initialization).
type Undefined struct{}

// Pair is a cons cell; its fields live in the store so that pairs share
// structure and are mutable, like VEC.
type Pair struct {
	CarLoc, CdrLoc env.Location
}

// Vector is VEC:(α0,...,αn−1): a tag plus n element locations.
type Vector struct {
	ElemLocs []env.Location
}

// Closure is CLOSURE:(α,L,ρ). The location α tags the closure — the paper
// cites [Ram94]: a bug in the design of Scheme requires a location to be
// allocated so that procedures have identity.
type Closure struct {
	Tag env.Location
	Lam *ast.Lambda
	Env env.Env
}

// Escape is ESCAPE:(α,κ), a first-class continuation captured by call/cc.
type Escape struct {
	Tag env.Location
	K   Cont
}

// Primop is PRIMOP:p, a primitive procedure. Apply runs the primitive: it
// may allocate in the store and returns the result value. Primitives that
// need machine cooperation (call/cc) are flagged and handled by the machine.
type Primop struct {
	Name   string
	Arity  int  // exact argument count; -1 means variadic
	CallCC bool // the machine captures the continuation itself
	Spread bool // (apply f a b '(c d)): the machine re-dispatches f
	Apply  func(st *Store, args []Value) (Value, error)
}

// ArrowContract is a higher-order contract built by (-> dom ... cod): one
// contract per argument plus one for the result. Dom and Cod entries are
// contract values themselves — predicate procedures (flat contracts) or
// nested arrow contracts. Like Closure, an arrow contract carries a tag
// location so contracts have identity: the space-efficient monitor drops a
// pending codomain check exactly when an identical contract (same tag) is
// already pending, which is what bounds its monitoring space.
type ArrowContract struct {
	Tag env.Location
	Dom []Value
	Cod Value
}

// Guarded is GUARDED:(α, v, κ_ctc, l): a procedure wrapped by an arrow
// contract under the monitor machines. Applying it checks the argument
// against Dom contracts, applies the underlying procedure, and monitors the
// result against Cod. Only the monitor machine variants mint Guarded values;
// every other family member erases contracts before they can wrap anything.
type Guarded struct {
	Tag   env.Location
	Proc  Value // the wrapped procedure (possibly itself Guarded)
	Ctc   *ArrowContract
	Label string // blame label: the monitored party
}

// Foreign is an extension point for alternative evaluators that share this
// value domain (the denotational interpreter's reified continuations, for
// instance). It prints as a procedure and charges one word; the hosting
// evaluator gives it meaning.
type Foreign struct {
	Tag  string
	Data any
}

func (Bool) isValue()           {}
func (Num) isValue()            {}
func (Sym) isValue()            {}
func (Str) isValue()            {}
func (Char) isValue()           {}
func (Null) isValue()           {}
func (Unspecified) isValue()    {}
func (Undefined) isValue()      {}
func (Pair) isValue()           {}
func (Vector) isValue()         {}
func (Closure) isValue()        {}
func (Escape) isValue()         {}
func (*Primop) isValue()        {}
func (*ArrowContract) isValue() {}
func (Guarded) isValue()        {}
func (Foreign) isValue()        {}

// NewNum wraps an int64.
func NewNum(v int64) Num { return Num{Int: big.NewInt(v)} }

// Truthy implements Scheme truth: everything but #f is true.
func Truthy(v Value) bool {
	b, ok := v.(Bool)
	return !ok || bool(b)
}

// IsProcedure reports whether v can be applied.
func IsProcedure(v Value) bool {
	switch v.(type) {
	case Closure, Escape, *Primop, Guarded:
		return true
	}
	return false
}

// ContractID returns a comparable identity for a contract value, used by the
// space-efficient monitor to drop duplicate pending checks. Closures and
// arrow contracts are identified by their tag location, primitives by
// pointer; ok is false for values with no stable identity (those are never
// deduplicated, which is safe — it only costs space).
func ContractID(v Value) (id any, ok bool) {
	switch x := v.(type) {
	case Closure:
		return x.Tag, true
	case *ArrowContract:
		return x.Tag, true
	case *Primop:
		return x, true
	case Guarded:
		return x.Tag, true
	}
	return nil, false
}

// Locations appends the store locations that occur (syntactically) within v
// — the roots contributed by v for garbage collection and for the
// occurs-checks of the Z_stack return rule. Environments are enumerated
// under ep (see env.Epoch): a rib an earlier call under the same epoch
// delivered is not appended again.
func Locations(v Value, ep env.Epoch, out []env.Location) []env.Location {
	switch x := v.(type) {
	case Pair:
		return append(out, x.CarLoc, x.CdrLoc)
	case Vector:
		return append(out, x.ElemLocs...)
	case Closure:
		out = append(out, x.Tag)
		return x.Env.AppendLocations(ep, out)
	case Escape:
		out = append(out, x.Tag)
		return ContLocations(x.K, ep, out)
	case *ArrowContract:
		out = append(out, x.Tag)
		for _, d := range x.Dom {
			out = Locations(d, ep, out)
		}
		return Locations(x.Cod, ep, out)
	case Guarded:
		out = append(out, x.Tag)
		out = Locations(x.Proc, ep, out)
		return Locations(x.Ctc, ep, out)
	}
	return out
}
