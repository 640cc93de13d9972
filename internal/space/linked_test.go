package space

import (
	"testing"

	"tailspace/internal/ast"
	"tailspace/internal/env"
	"tailspace/internal/value"
)

func TestLinkedValueCosts(t *testing.T) {
	st := value.NewStore()
	w := newLinkedWalker(Word)
	if got := w.valueSpace(value.NewNum(1024)).At(1); got != 12 {
		t.Fatalf("num = %d", got)
	}
	if got := w.valueSpace(value.Str("abc")).At(1); got != 4 {
		t.Fatalf("str = %d", got)
	}
	if got := w.valueSpace(value.Pair{}).At(1); got != 3 {
		t.Fatalf("pair = %d", got)
	}
	if got := w.valueSpace(value.Vector{ElemLocs: make([]env.Location, 4)}).At(1); got != 5 {
		t.Fatalf("vec = %d", got)
	}
	if got := w.valueSpace(value.Bool(true)).At(1); got != 1 {
		t.Fatalf("bool = %d", got)
	}
	_ = st
}

func TestLinkedClosureCostsOneWord(t *testing.T) {
	rho := env.Empty().ExtendSyms(env.InternAll([]string{"a", "b"}), []env.Location{1, 2})
	w := newLinkedWalker(Word)
	cl := value.Closure{Lam: &ast.Lambda{}, Env: rho}
	if got := w.valueSpace(cl).At(1); got != 1 {
		t.Fatalf("closure = %d, want 1 (bindings are global)", got)
	}
	if len(w.bindings) != 2 {
		t.Fatalf("bindings = %d, want 2", len(w.bindings))
	}
}

func TestLinkedContFrameCosts(t *testing.T) {
	rho := env.Empty().ExtendSyms(env.InternAll([]string{"x"}), []env.Location{9})
	w := newLinkedWalker(Word)
	var k value.Cont = value.Halt{}
	k = &value.Assign{Name: "x", Env: rho, K: k}
	k = &value.Select{Then: &ast.Var{Name: "a"}, Else: &ast.Var{Name: "b"}, Env: rho, K: k}
	k = &value.ReturnStack{Del: []env.Location{3}, Env: rho, K: k}
	k = &value.Return{Env: rho, K: k}
	k = &value.Call{Args: []value.Value{value.Bool(true)}, K: k}
	// call(1+1) + return(1) + return-stack(1) + select(1) + assign(1) + halt(1)
	if got := w.contSpace(k).At(1); got != 7 {
		t.Fatalf("cont = %d, want 7", got)
	}
	// One shared binding across the four environments.
	if len(w.bindings) != 1 {
		t.Fatalf("bindings = %d, want 1", len(w.bindings))
	}
}

func TestLinkedPushHoldsClosuresByReference(t *testing.T) {
	rho := env.Empty().ExtendSyms(env.InternAll([]string{"v"}), []env.Location{5})
	cl := value.Closure{Lam: &ast.Lambda{}, Env: rho}
	w := newLinkedWalker(Word)
	k := value.NewPush(
		[]ast.Expr{&ast.Var{Name: "f"}, &ast.Var{Name: "d"}, &ast.Var{Name: "e"}}, []int{0, 1, 2},
		[]value.Value{cl}, env.Empty(), value.Halt{})
	// push: 1 + m(1) + n(1), halt: 1; the closure's payload is not charged
	// again but its bindings enter the global set.
	if got := w.contSpace(k).At(1); got != 4 {
		t.Fatalf("push = %d, want 4", got)
	}
	if len(w.bindings) != 1 {
		t.Fatalf("bindings = %d, want 1", len(w.bindings))
	}
}

func TestLinkedEscapeHeldInContinuationChargesFrames(t *testing.T) {
	rho := env.Empty().ExtendSyms(env.InternAll([]string{"x"}), []env.Location{5})
	esc := value.Escape{K: &value.Return{Env: rho, K: value.Halt{}}}
	w := newLinkedWalker(Word)
	k := &value.Call{Args: []value.Value{esc}, K: value.Halt{}}
	// call: 1 + 1, halt: 1, plus the escape's return frame: 1. The escape's
	// halt is THE halt — all halts are one continuation — so it dedups.
	if got := w.contSpace(k).At(1); got != 4 {
		t.Fatalf("cont with escape = %d, want 4", got)
	}
}

func TestDeltaMeterStoreAccountStaysExact(t *testing.T) {
	st := value.NewStore()
	st.Alloc(value.NewNum(7))
	d := NewDeltaMeter(Word)
	d.Attach(st)
	if got, walked := d.total, word.Store(st); got != walked {
		t.Fatalf("attached store account %+v != walked %+v", got, walked)
	}
	// Mutations keep the account exact.
	l := st.Alloc(value.Str("abcdef"))
	st.Set(l, value.NewNum(3))
	st.Delete(l)
	st.Alloc(value.Pair{})
	if got, walked := d.total, word.Store(st); got != walked {
		t.Fatalf("account drifted: %+v != %+v", got, walked)
	}
}

func TestStoreWalkWithoutSizer(t *testing.T) {
	st := value.NewStore()
	st.Alloc(value.NewNum(1)) // 1 + 2
	st.Alloc(value.Pair{})    // 1 + 3
	if got := w1(word.Store(st)); got != 7 {
		t.Fatalf("walked store = %d, want 7", got)
	}
}

func TestForeignValueCost(t *testing.T) {
	if got := w1(word.Value(value.Foreign{Tag: "x"})); got != 1 {
		t.Fatalf("foreign = %d, want 1", got)
	}
	w := newLinkedWalker(Word)
	if got := w.valueSpace(value.Foreign{Tag: "x"}).At(1); got != 1 {
		t.Fatalf("linked foreign = %d, want 1", got)
	}
}
