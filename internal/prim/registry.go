// Package prim implements the standard procedures of the initial
// environment ρ0 and store σ0 (Section 12 of the paper refers to Section 6
// of the IEEE standard for their behaviour). The rules for primitive
// procedures are the "additional rules" Figure 5 leaves unspecified.
package prim

import (
	"fmt"
	"sort"

	"tailspace/internal/env"
	"tailspace/internal/value"
)

// Error reports a primitive applied to bad arguments; the machine treats it
// as a stuck computation.
type Error struct {
	Name string
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Name, e.Msg) }

func errf(name, format string, args ...any) error {
	return &Error{Name: name, Msg: fmt.Sprintf(format, args...)}
}

// registry is built once; primitives are stateless (the store carries any
// state they need, including the random source).
var registry = map[string]*value.Primop{}

func register(p *value.Primop) {
	if _, dup := registry[p.Name]; dup {
		panic("prim: duplicate primitive " + p.Name)
	}
	registry[p.Name] = p
}

func def(name string, arity int, apply func(st *value.Store, args []value.Value) (value.Value, error)) {
	register(&value.Primop{Name: name, Arity: arity, Apply: apply})
}

func init() {
	registerArith()
	registerPredicates()
	registerLists()
	registerVectors()
	registerControl()
	registerStrings()
	registerContracts()

	names := Names()
	sort.Strings(names)
	globalSyms = env.InternAll(names)
	for _, n := range names {
		globalPrims = append(globalPrims, registry[n])
	}
}

// globalPrims are the primitives in sorted name order and globalSyms their
// interned names, built once the registry is complete. Every run's ρ0 binds
// them in this order over a rib of its own, since collections stamp ribs.
var (
	globalSyms  []env.Symbol
	globalPrims []value.Value
)

// Lookup returns the primitive with the given name.
func Lookup(name string) (*value.Primop, bool) {
	p, ok := registry[name]
	return p, ok
}

// Names returns every primitive name (unordered).
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	return out
}

// Global builds the initial environment ρ0 and store σ0 containing the
// standard procedures.
func Global() (env.Env, *value.Store) {
	return GlobalInto(value.NewStore())
}

// GlobalInto installs the standard procedures into an empty store (arena or
// map backed) and returns ρ0 with it. Primitives are allocated in sorted name
// order so two runs — and two store representations — number ρ0's locations
// identically; whole-run reproducibility starts here.
func GlobalInto(st *value.Store) (env.Env, *value.Store) {
	return env.Distinct(globalSyms, st.AllocN(globalPrims)), st
}

// Argument helpers shared by the primitive implementations.

func wantNum(name string, v value.Value) (value.Num, error) {
	n, ok := v.(value.Num)
	if !ok {
		return value.Num{}, errf(name, "expected a number, got %T", v)
	}
	return n, nil
}

func wantPair(name string, v value.Value) (value.Pair, error) {
	p, ok := v.(value.Pair)
	if !ok {
		return value.Pair{}, errf(name, "expected a pair, got %T", v)
	}
	return p, nil
}

func wantVector(name string, v value.Value) (value.Vector, error) {
	vec, ok := v.(value.Vector)
	if !ok {
		return value.Vector{}, errf(name, "expected a vector, got %T", v)
	}
	return vec, nil
}

func wantIndex(name string, v value.Value, limit int) (int, error) {
	n, err := wantNum(name, v)
	if err != nil {
		return 0, err
	}
	if !n.Int.IsInt64() {
		return 0, errf(name, "index out of range")
	}
	i := n.Int.Int64()
	if i < 0 || i >= int64(limit) {
		return 0, errf(name, "index %d out of range [0,%d)", i, limit)
	}
	return int(i), nil
}

func boolVal(b bool) value.Value { return value.Bool(b) }
