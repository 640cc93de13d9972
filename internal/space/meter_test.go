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
	k = value.NewPush(
		[]ast.Expr{&ast.Var{Name: "f"}, &ast.Var{Name: "d"}, &ast.Var{Name: "e"}}, []int{0, 1, 2},
		[]value.Value{value.Bool(true)}, rho, k)
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

// TestDeltaMeterDeepChainIsAmortized pushes a 141,072-frame chain one
// frame per observation and then pops it back to halt the same way. The
// meter prices only the frames that join and leave κ, so each frame is
// priced once on the way up and once on the way down, within a budget of
// three pricings per frame; a meter that re-walked κ would blow the budget
// within a few observations.
func TestDeltaMeterDeepChainIsAmortized(t *testing.T) {
	const frames = 141_072
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
		t.Fatalf("carried total %+v, walk %+v", got, want)
	}
	for k.Next() != nil {
		k = k.Next()
		delta.Flat(nil, rho, k, st)
	}
	if got, want := delta.contSpace(k), (Measurer{Model: Fixnum}).Cont(k); got != want {
		t.Fatalf("after popping to halt: carried total %+v, walk %+v", got, want)
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
