package value

import (
	"fmt"

	"tailspace/internal/ast"
	"tailspace/internal/env"
)

// Cont is a continuation κ of Figure 4:
//
//	κ ::= halt
//	    | select:(E1, E2, ρ, κ)
//	    | assign:(I, ρ, κ)
//	    | push:((E,...), (v,...), π, ρ, κ)
//	    | call:((v,...), κ)
//	    | return:(ρ, κ)        (Z_gc only)
//	    | return:(A, ρ, κ)     (Z_stack only)
type Cont interface {
	isCont()
	// Next returns the saved continuation, or nil for halt.
	Next() Cont
}

// Halt is the initial continuation.
type Halt struct{}

// Select is select:(E1, E2, ρ, κ) — awaiting the test value of an if.
type Select struct {
	Then, Else ast.Expr
	Env        env.Env
	K          Cont
}

// Assign is assign:(I, ρ, κ) — awaiting the right-hand side of a set!.
type Assign struct {
	Name string
	// Sym is the interned Name, the key the assignment resolves in Env.
	Sym env.Symbol
	Env env.Env
	K   Cont
}

// Push is push:((E,...), (v,...), π, ρ, κ) — evaluating the subexpressions
// of a procedure call. Rest holds the expressions still to evaluate, in
// evaluation order; Done holds the values computed so far. The permutation π
// is represented by the original positions RestIdx/DoneIdx so the call can
// be reassembled in source order when evaluation finishes.
type Push struct {
	Rest    []ast.Expr
	RestIdx []int
	Done    []Value
	DoneIdx []int
	// CurIdx is the source position of the subexpression currently being
	// evaluated, so values can be reassembled in source order under any π.
	CurIdx int
	Env    env.Env
	K      Cont
}

// Call is call:((v1,...,vm), κ) — the operands are ready and the machine is
// delivering the operator value.
type Call struct {
	Args []Value
	K    Cont
}

// Return is return:(ρ, κ), the continuation Z_gc pushes on every procedure
// call (Section 8): it wastes space for no reason, making Z_gc improperly
// tail recursive.
type Return struct {
	Env env.Env
	K   Cont
}

// ReturnStack is return:(A, ρ, κ), the continuation Z_stack pushes. The
// locations in Del are deleted from the store when the continuation is
// invoked — an Algol-like deletion strategy. If a deleted location is still
// referenced the computation is stuck (a dangling pointer).
type ReturnStack struct {
	Del []env.Location
	Env env.Env
	K   Cont
}

// MonCtc is mon-ctc:(E, ρ, l, κ) — evaluating the contract expression of a
// (mon ctc E) form; the monitored expression E and its environment wait in
// the frame.
type MonCtc struct {
	Expr  ast.Expr
	Label string
	Env   env.Env
	K     Cont
}

// MonAttach is mon-attach:(v_ctc, l, κ) — the contract is ready and the
// machine is evaluating the monitored expression. On the monitor machines the
// delivered value is checked (flat) or wrapped (arrow); everywhere else it
// passes through unchanged.
type MonAttach struct {
	Ctc   Value
	Label string
	K     Cont
}

// Pending is one deferred contract check: the contract a result must satisfy
// and the label blamed if it does not. Src is the attach-time contract the
// check descends from (the whole arrow, for a codomain check): two pending
// checks are duplicates exactly when they came from the *same monitor* with
// the same blame, so the space-efficient join dedups by Src's identity —
// codomain predicates are routinely shared (number? is one primop), their
// identity says nothing about which monitor is checking.
type Pending struct {
	Ctc   Value
	Src   Value
	Label string
}

// MonDom is mon-dom:(g, (v,...), i, κ) — a guarded application checking its
// arguments: the frame awaits the verdict of Ctc.Dom[Idx] applied to
// Args[Idx]. A true verdict resumes the application at the next argument; #f
// blames the caller.
type MonDom struct {
	G    Guarded
	Args []Value
	Idx  int
	K    Cont
}

// MonCod is mon-cod:((κ_ctc, l) ..., κ) — the monitor frame proper: the
// codomain checks pending for the value this continuation will receive. The
// naive monitor pushes a fresh MonCod on every guarded call, breaking tail
// recursion (one frame per recursion level, Greenberg's Θ(n)); the
// space-efficient monitor joins a new check into an existing top MonCod
// frame, dropping duplicates, so monitoring occupies bounded space per
// continuation.
type MonCod struct {
	Pend []Pending
	K    Cont
}

// MonChk is mon-chk:(v, (κ_ctc, l) ..., l, κ) — awaiting a flat predicate's
// verdict on Val; Rest holds the checks still pending on the same value. A
// true verdict continues with Rest (or delivers Val); #f blames Label.
type MonChk struct {
	Val   Value
	Rest  []Pending
	Label string
	K     Cont
}

func (Halt) isCont()         {}
func (*Select) isCont()      {}
func (*Assign) isCont()      {}
func (*Push) isCont()        {}
func (*Call) isCont()        {}
func (*Return) isCont()      {}
func (*ReturnStack) isCont() {}
func (*MonCtc) isCont()      {}
func (*MonAttach) isCont()   {}
func (*MonDom) isCont()      {}
func (*MonCod) isCont()      {}
func (*MonChk) isCont()      {}

func (Halt) Next() Cont           { return nil }
func (k *Select) Next() Cont      { return k.K }
func (k *Assign) Next() Cont      { return k.K }
func (k *Push) Next() Cont        { return k.K }
func (k *Call) Next() Cont        { return k.K }
func (k *Return) Next() Cont      { return k.K }
func (k *ReturnStack) Next() Cont { return k.K }
func (k *MonCtc) Next() Cont      { return k.K }
func (k *MonAttach) Next() Cont   { return k.K }
func (k *MonDom) Next() Cont      { return k.K }
func (k *MonCod) Next() Cont      { return k.K }
func (k *MonChk) Next() Cont      { return k.K }

// RootReturnEnvironments is an ablation switch for the experiments: when
// true, the saved environments of return continuations are treated as GC
// roots (the maximally literal reading of the garbage collection rule).
// Under that reading Z_gc retains everything Z_stack retains and the paper's
// Theorem 25(a) separation collapses — which is exactly why the default is
// the charged-but-dead reading (see DESIGN.md). Only the ablation experiment
// flips this, single-threaded.
var RootReturnEnvironments = false

// ContLocations appends the store locations occurring within κ. Saved
// environments are enumerated under ep (see env.Epoch): under one epoch a
// rib already delivered is not walked again, so the frames of a deep
// recursion, which all end in ρ0, cost O(frames + ribs) rather than
// O(frames × |ρ|).
func ContLocations(k Cont, ep env.Epoch, out []env.Location) []env.Location {
	for k != nil {
		switch x := k.(type) {
		case Halt:
			return out
		case *Select:
			out = x.Env.AppendLocations(ep, out)
		case *Assign:
			out = x.Env.AppendLocations(ep, out)
		case *Push:
			out = x.Env.AppendLocations(ep, out)
			for _, v := range x.Done {
				out = Locations(v, ep, out)
			}
		case *Call:
			for _, v := range x.Args {
				out = Locations(v, ep, out)
			}
		case *Return:
			// The environment a return continuation restores is dead: no
			// rule ever dereferences it — the next continuation restores its
			// own environment (Section 8: "these rules waste space for no
			// reason"). It is charged by Figure 7 (1 + |Dom ρ|) but it is
			// not a root, which is what keeps Z_gc free of the Theorem 25(a)
			// quadratic blowup that Z_stack's A-retention causes.
			if RootReturnEnvironments {
				out = x.Env.AppendLocations(ep, out)
			}
		case *ReturnStack:
			// Same dead environment as Return, but the deletion set A roots
			// its locations: a stack frame keeps its variables alive until
			// it returns. This retention — not the deletion itself — is what
			// makes Z_stack asymptotically worse than a garbage collector
			// (Section 5, Theorem 25(a)).
			out = append(out, x.Del...)
		case *MonCtc:
			out = x.Env.AppendLocations(ep, out)
		case *MonAttach:
			out = Locations(x.Ctc, ep, out)
		case *MonDom:
			out = Locations(x.G, ep, out)
			for _, v := range x.Args {
				out = Locations(v, ep, out)
			}
		case *MonCod:
			for _, p := range x.Pend {
				out = Locations(p.Ctc, ep, out)
				// Src must stay rooted while its check is pending: the join
				// dedups by its tag location, which a collected-and-reused
				// cell would alias.
				out = Locations(p.Src, ep, out)
			}
		case *MonChk:
			out = Locations(x.Val, ep, out)
			for _, p := range x.Rest {
				out = Locations(p.Ctc, ep, out)
				out = Locations(p.Src, ep, out)
			}
		default:
			// A frame kind this walk does not know would silently lose GC
			// roots — fail loudly instead (and see tools/analyzers, which
			// rejects the build when a case is missing).
			panic(fmt.Sprintf("value: unrooted continuation frame %T — every frame kind must contribute its roots", k))
		}
		k = k.Next()
	}
	return out
}

// Depth returns the number of continuation frames below κ, halt included.
// It is a diagnostic ("control stack depth"), not a space measure.
func Depth(k Cont) int {
	n := 0
	for k != nil {
		n++
		k = k.Next()
	}
	return n
}
