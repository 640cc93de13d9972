package space

import (
	"fmt"
	"testing"

	"tailspace/internal/ast"
	"tailspace/internal/env"
	"tailspace/internal/value"
)

// buildConfig assembles a configuration with every frame kind, an escape in
// the store, and a value register, over a small populated store.
func buildConfig() (value.Value, env.Env, value.Cont, *value.Store) {
	st := value.NewStore()
	a := st.Alloc(value.NewNum(7))
	b := st.Alloc(value.Str("hello"))
	st.Alloc(value.Pair{CarLoc: a, CdrLoc: b})

	rho := env.Empty().ExtendSyms(env.InternAll([]string{"x", "y"}), []env.Location{a, b})
	var k value.Cont = value.Halt{}
	k = &value.Return{Env: rho, K: k}
	k = &value.Call{Args: []value.Value{value.NewNum(3)}, K: k}
	k = &value.Push{
		Rest: []ast.Expr{&ast.Var{Name: "e"}}, RestIdx: []int{1},
		Done: []value.Value{value.Bool(true)}, DoneIdx: []int{0},
		Env: rho, K: k,
	}
	st.Alloc(value.Escape{K: k})
	k = &value.Select{Then: &ast.Var{Name: "a"}, Else: &ast.Var{Name: "b"}, Env: rho, K: k}

	return value.Closure{Lam: &ast.Lambda{}, Env: rho}, rho, k, st
}

func TestDeltaMeterMatchesOracleOnStaticConfig(t *testing.T) {
	for _, model := range Models {
		val, rho, k, st := buildConfig()
		full := NewFullMeter(model)
		delta := NewDeltaMeter(model)
		delta.Attach(st)
		if got, want := delta.Flat(val, rho, k, st), full.Flat(val, rho, k, st); got != want {
			t.Errorf("model %s: delta flat %d != oracle %d", model.Name(), got, want)
		}
		if got, want := delta.Flat(nil, rho, k, st), full.Flat(nil, rho, k, st); got != want {
			t.Errorf("model %s: delta flat (expr config) %d != oracle %d", model.Name(), got, want)
		}
		if got, want := delta.Linked(val, rho, k, st), full.Linked(val, rho, k, st); got != want {
			t.Errorf("model %s: delta linked %d != oracle %d", model.Name(), got, want)
		}
	}
}

func TestDeltaMeterTracksMutationsExactly(t *testing.T) {
	val, rho, k, st := buildConfig()
	full := NewFullMeter(Fixnum)
	delta := NewDeltaMeter(Fixnum)
	delta.Attach(st)

	check := func(stage string) {
		t.Helper()
		if got, want := delta.Flat(val, rho, k, st), full.Flat(val, rho, k, st); got != want {
			t.Fatalf("%s: delta %d != oracle %d", stage, got, want)
		}
	}
	check("initial")
	l := st.Alloc(value.Str("mutate me"))
	check("after alloc")
	st.Set(l, value.NewNum(12))
	check("after set")
	st.Delete(l)
	check("after delete")
	st.Collect(nil, rho, nil)
	check("after collect")
}

// TestDeltaMeterContMemoSurvivesPruning forces the memo over its limit and
// checks the recomputed chain totals stay identical to the oracle walk.
func TestDeltaMeterContMemoSurvivesPruning(t *testing.T) {
	st := value.NewStore()
	rho := env.Empty()
	delta := NewDeltaMeter(Fixnum)
	delta.Attach(st)
	m := Measurer{Model: Fixnum}

	var k value.Cont = value.Halt{}
	for i := 0; i < 64; i++ {
		k = &value.Return{Env: rho, K: k}
	}
	if got, want := delta.contSpace(k), m.Cont(k); got != want {
		t.Fatalf("before pruning: %+v != %+v", got, want)
	}
	delta.contMemo = make(map[value.Cont]Cost, deltaMemoLimit+2)
	for i := 0; i < deltaMemoLimit+1; i++ {
		delta.contMemo[&value.Return{Env: rho}] = Cost{Units: i}
	}
	if got, want := delta.contSpace(&value.Select{Env: rho, K: k}), (Cost{Units: 1}).Add(m.Cont(k)); got != want {
		t.Fatalf("after pruning: %+v != %+v", got, want)
	}
	if len(delta.contMemo) > 70 {
		t.Fatalf("memo was not pruned: %d entries", len(delta.contMemo))
	}
}

// countingModel wraps a cost model with a frame counter that panics once
// more than budget frames have been priced.
type countingModel struct {
	CostModel
	frames, budget int
}

func (c *countingModel) Frame(k value.Cont) Cost {
	c.frames++
	if c.frames > c.budget {
		panic(fmt.Sprintf("priced %d frames, budget %d", c.frames, c.budget))
	}
	return c.CostModel.Frame(k)
}

// TestDeltaMeterMemoResetIsAmortized pushes and observes a chain deeper than
// deltaMemoLimit. Each frame is priced when it is pushed and again at most
// once when the memo resets, so the whole run prices O(frames) frames; a
// memo that reset on every push past the limit would re-walk the chain
// each time and blow the budget within a few pushes.
func TestDeltaMeterMemoResetIsAmortized(t *testing.T) {
	const frames = deltaMemoLimit + 10_000
	model := &countingModel{CostModel: Fixnum, budget: 3 * frames}
	st := value.NewStore()
	delta := NewDeltaMeter(model)
	delta.Attach(st)
	rho := env.Empty()
	var k value.Cont = value.Halt{}
	for i := 0; i < frames; i++ {
		k = &value.Return{Env: rho, K: k}
		delta.Flat(nil, rho, k, st)
	}
	if got, want := delta.contSpace(k), (Measurer{Model: Fixnum}).Cont(k); got != want {
		t.Fatalf("memoized total %+v, walk %+v", got, want)
	}
}

// TestDeltaMeterReattachResets re-attaches one meter to a second store and
// checks the account restarts from that store's contents.
func TestDeltaMeterReattachResets(t *testing.T) {
	st1 := value.NewStore()
	st1.Alloc(value.Str("old"))
	delta := NewDeltaMeter(Fixnum)
	delta.Attach(st1)

	st2 := value.NewStore()
	st2.Alloc(value.NewNum(1))
	delta.Attach(st2)
	m := Measurer{Model: Fixnum}
	if got, want := delta.total, m.Store(st2); got != want {
		t.Fatalf("after re-attach: account %+v != new store %+v", got, want)
	}
	// The first store no longer notifies the meter.
	st1.Alloc(value.Str("should not count"))
	if got, want := delta.total, m.Store(st2); got != want {
		t.Fatalf("old store still observed: %+v != %+v", got, want)
	}
	// Re-attaching to the current store is a no-op, not a double count.
	delta.Attach(st2)
	st2.Alloc(value.NewNum(2))
	if got, want := delta.total, m.Store(st2); got != want {
		t.Fatalf("double registration: %+v != %+v", got, want)
	}
}

// TestDeltaMeterLinkedBeforeAttachPanics: the Figure 8 account is fed by the
// attached store's hooks, so measuring before Attach is a usage error, not a
// reason to fall back to the oracle's walk.
func TestDeltaMeterLinkedBeforeAttachPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Linked before Attach must panic")
		}
	}()
	NewDeltaMeter(Word).Linked(nil, env.Empty(), value.Halt{}, value.NewStore())
}
