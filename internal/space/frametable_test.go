package space

import (
	"slices"
	"testing"

	"tailspace/internal/ast"
	"tailspace/internal/env"
	"tailspace/internal/value"
)

// TestFrameTable pins, for every continuation frame kind, the three readings
// of what a frame holds: its Figure 7 charge, uncollapsed, under LogModel
// (where a binding costs a unit and a pointer word, so swapping Units and
// Ptrs shows); its Figure 8 charge together with the environments and
// continuations it hands on; and the GC roots ContLocations finds in it with
// the ablation switch off and on. Every frame sits on halt, which adds
// nothing to any of the three.
func TestFrameTable(t *testing.T) {
	rho := env.Empty().ExtendSyms(env.InternAll([]string{"x", "y"}), []env.Location{1, 2})
	cloEnv := env.Empty().ExtendSyms(env.InternAll([]string{"z"}), []env.Location{21})
	escEnv := env.Empty().ExtendSyms(env.InternAll([]string{"w"}), []env.Location{31})
	halt := value.Halt{}
	clo := value.Closure{Tag: 20, Env: cloEnv}
	pair := value.Pair{CarLoc: 7, CdrLoc: 8}
	escK := &value.Assign{Name: "w", Sym: env.Intern("w"), Env: escEnv, K: halt}
	esc := value.Escape{Tag: 30, K: escK}
	prim := &value.Primop{Name: "number?"}
	arrow := &value.ArrowContract{Tag: 41, Dom: []value.Value{clo}, Cod: prim}
	guard := value.Guarded{Tag: 40, Proc: esc, Ctc: arrow, Label: "f"}
	check := value.Pending{Ctc: clo, Src: arrow, Label: "f"}
	primCheck := value.Pending{Ctc: prim, Src: guard, Label: "g"}
	e := func(name string) ast.Expr { return &ast.Var{Name: name} }

	cases := []struct {
		name string
		k    value.Cont
		// flat is the Figure 7 charge under LogModel; linked the Figure 8
		// charge, which leaves the saved environment's bindings to the
		// global set.
		flat, linked Cost
		// envs and conts are what the Figure 8 pricing hands on: saved and
		// closure environments (empty ones bind nothing and are left out),
		// and the continuations escapes retain.
		envs  []env.Env
		conts []value.Cont
		// roots and ablated are ContLocations' roots, sorted, with
		// value.RootReturnEnvironments off and on.
		roots, ablated []env.Location
	}{
		{name: "halt", k: halt,
			flat: Cost{1, 0}, linked: Cost{1, 0}},
		{name: "select", k: &value.Select{Then: e("a"), Else: e("b"), Env: rho, K: halt},
			flat: Cost{3, 2}, linked: Cost{1, 0}, envs: []env.Env{rho},
			roots: []env.Location{1, 2}, ablated: []env.Location{1, 2}},
		{name: "assign", k: &value.Assign{Name: "x", Sym: env.Intern("x"), Env: rho, K: halt},
			flat: Cost{3, 2}, linked: Cost{1, 0}, envs: []env.Env{rho},
			roots: []env.Location{1, 2}, ablated: []env.Location{1, 2}},
		{name: "push", k: value.NewPush(
			[]ast.Expr{e("a"), e("b"), e("x"), e("c"), e("d"), e("f")}, []int{0, 1, 2, 3, 4, 5},
			[]value.Value{clo, pair}, rho, halt),
			// 1 + m(3) + n(2) + |Dom ρ|(2).
			flat: Cost{6, 4}, linked: Cost{4, 2}, envs: []env.Env{rho, cloEnv},
			roots:   []env.Location{1, 2, 7, 8, 20, 21},
			ablated: []env.Location{1, 2, 7, 8, 20, 21}},
		{name: "call", k: &value.Call{Args: []value.Value{esc, pair}, K: halt},
			flat: Cost{1, 2}, linked: Cost{1, 2}, conts: []value.Cont{escK},
			roots: []env.Location{7, 8, 30, 31}, ablated: []env.Location{7, 8, 30, 31}},
		{name: "return", k: &value.Return{Env: rho, K: halt},
			// Charged by Figure 7, but dead: no rule reads it, so no root.
			flat: Cost{3, 2}, linked: Cost{1, 0}, envs: []env.Env{rho},
			roots: nil, ablated: []env.Location{1, 2}},
		{name: "return-stack", k: &value.ReturnStack{Del: []env.Location{50, 51}, Env: rho, K: halt},
			// The same dead environment as return's, which the literal
			// reading roots too; the deletion set A is rooted either way.
			flat: Cost{3, 2}, linked: Cost{1, 0}, envs: []env.Env{rho},
			roots: []env.Location{50, 51}, ablated: []env.Location{1, 2, 50, 51}},
		{name: "mon-ctc", k: &value.MonCtc{Expr: e("m"), Label: "f", Env: rho, K: halt},
			flat: Cost{4, 2}, linked: Cost{2, 0}, envs: []env.Env{rho},
			roots: []env.Location{1, 2}, ablated: []env.Location{1, 2}},
		{name: "mon-attach", k: &value.MonAttach{Ctc: arrow, Label: "f", K: halt},
			flat: Cost{1, 1}, linked: Cost{1, 1}, envs: []env.Env{cloEnv},
			roots: []env.Location{20, 21, 41}, ablated: []env.Location{20, 21, 41}},
		{name: "mon-dom", k: &value.MonDom{G: guard, Args: []value.Value{pair, clo}, Idx: 1, K: halt},
			flat: Cost{2, 3}, linked: Cost{2, 3},
			envs: []env.Env{cloEnv, cloEnv}, conts: []value.Cont{escK},
			roots:   []env.Location{7, 8, 20, 20, 21, 21, 30, 31, 40, 41},
			ablated: []env.Location{7, 8, 20, 20, 21, 21, 30, 31, 40, 41}},
		{name: "mon-cod", k: &value.MonCod{Pend: []value.Pending{check, primCheck}, K: halt},
			flat: Cost{3, 2}, linked: Cost{3, 2},
			envs: []env.Env{cloEnv, cloEnv, cloEnv}, conts: []value.Cont{escK},
			roots:   []env.Location{20, 20, 20, 21, 21, 21, 30, 31, 40, 41, 41},
			ablated: []env.Location{20, 20, 20, 21, 21, 21, 30, 31, 40, 41, 41}},
		{name: "mon-chk", k: &value.MonChk{Val: value.Vector{ElemLocs: []env.Location{60, 61}},
			Rest: []value.Pending{check}, Label: "f", K: halt},
			flat: Cost{2, 2}, linked: Cost{2, 2}, envs: []env.Env{cloEnv, cloEnv},
			roots:   []env.Location{20, 20, 21, 21, 41, 60, 61},
			ablated: []env.Location{20, 20, 21, 21, 41, 60, 61}},
	}

	roots := func(k value.Cont, ablate bool) []env.Location {
		value.RootReturnEnvironments = ablate
		defer func() { value.RootReturnEnvironments = false }()
		out := value.ContLocations(k, env.Unstamped, nil)
		slices.Sort(out)
		return out
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Log.Frame(c.k); got != c.flat {
				t.Errorf("Figure 7 charge %+v, want %+v", got, c.flat)
			}
			var envs []env.Env
			var conts []value.Cont
			refs := linkedRefs{
				md: Log,
				onEnv: func(e env.Env) {
					if !e.IsEmpty() {
						envs = append(envs, e)
					}
				},
				onCont: func(k value.Cont) { conts = append(conts, k) },
			}
			if got := refs.frame(c.k); got != c.linked {
				t.Errorf("Figure 8 charge %+v, want %+v", got, c.linked)
			}
			if !sameMembers(envs, c.envs) {
				t.Errorf("Figure 8 hands on environments %v, want %v", envs, c.envs)
			}
			if !sameMembers(conts, c.conts) {
				t.Errorf("Figure 8 hands on continuations %v, want %v", conts, c.conts)
			}
			if got := roots(c.k, false); !slices.Equal(got, c.roots) {
				t.Errorf("roots %v, want %v", got, c.roots)
			}
			if got := roots(c.k, true); !slices.Equal(got, c.ablated) {
				t.Errorf("roots under RootReturnEnvironments %v, want %v", got, c.ablated)
			}
		})
	}
}

// sameMembers reports whether a and b hold the same elements the same
// number of times, in any order.
func sameMembers[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	n := make(map[T]int)
	for _, x := range a {
		n[x]++
	}
	for _, x := range b {
		n[x]--
	}
	for _, c := range n {
		if c != 0 {
			return false
		}
	}
	return true
}
