package space

import (
	"math/big"
	"testing"
	"testing/quick"

	"tailspace/internal/ast"
	"tailspace/internal/env"
	"tailspace/internal/value"
)

var word = Measurer{Model: Word}
var fix = Measurer{Model: Fixnum}
var logm = Measurer{Model: Log}

// w1 collapses a Cost at pointer width one — the WordModel/FixnumModel
// reading, where the Cost components just sum.
func w1(c Cost) int { return c.At(1) }

func TestAtomCosts(t *testing.T) {
	for _, v := range []value.Value{
		value.Bool(true), value.Bool(false), value.Sym("x"),
		value.Null{}, value.Char('a'), value.Unspecified{}, value.Undefined{},
	} {
		if got := w1(word.Value(v)); got != 1 {
			t.Errorf("space(%#v) = %d, want 1", v, got)
		}
	}
}

func TestNumberCosts(t *testing.T) {
	// Figure 7: space(NUM:z) = 1 + log2 z.
	cases := map[int64]int{
		0:    1,
		1:    2,
		2:    3, // bitlen 2
		1024: 12,
	}
	for z, want := range cases {
		if got := w1(word.Value(value.NewNum(z))); got != want {
			t.Errorf("space(NUM:%d) = %d, want %d", z, got, want)
		}
	}
	// The fixnum model charges every number the same.
	if fix.Value(value.NewNum(7)) != fix.Value(value.Num{Int: new(big.Int).Lsh(big.NewInt(1), 500)}) {
		t.Error("fixnum model must be size-independent")
	}
	// The log model agrees with the word model on numbers.
	if logm.Value(value.NewNum(1024)) != word.Value(value.NewNum(1024)) {
		t.Error("log model must price numbers as 1 + log2 z")
	}
}

func TestVectorCost(t *testing.T) {
	// Flat: a header word plus one location word per element. The element
	// words are pointers into the store, so they are Ptrs, not Units.
	v := value.Vector{ElemLocs: make([]env.Location, 5)}
	got := word.Value(v)
	if got != (Cost{Units: 1, Ptrs: 5}) {
		t.Fatalf("space(VEC:5) = %+v, want {Units:1 Ptrs:5}", got)
	}
	if w1(got) != 6 {
		t.Fatalf("space(VEC:5) at width 1 = %d, want 6", w1(got))
	}
	// Under LogModel the five element pointers widen with the live store.
	if at3 := got.At(3); at3 != 16 {
		t.Fatalf("space(VEC:5) at width 3 = %d, want 16", at3)
	}
}

func TestVectorCostLinked(t *testing.T) {
	// Linked (Figure 8) accounting prices a vector exactly as flat does —
	// vectors hold locations, not environments, so nothing is shareable.
	v := value.Vector{ElemLocs: make([]env.Location, 5)}
	w := newLinkedWalker(Word)
	if got := w.valueSpace(v); got != word.Value(v) {
		t.Fatalf("linked vector = %+v, flat = %+v; want equal", got, word.Value(v))
	}
	if len(w.bindings) != 0 {
		t.Fatalf("a vector must not contribute bindings, got %d", len(w.bindings))
	}
}

func TestClosureCost(t *testing.T) {
	// Figure 7: space(CLOSURE:(α,L,ρ)) = 1 + |Dom ρ|.
	rho := env.Empty().ExtendSyms(env.InternAll([]string{"a", "b", "c"}), []env.Location{1, 2, 3})
	cl := value.Closure{Tag: 0, Lam: &ast.Lambda{}, Env: rho}
	if got := w1(word.Value(cl)); got != 4 {
		t.Fatalf("space(closure) = %d, want 4", got)
	}
}

func TestPairAndStringCosts(t *testing.T) {
	if got := w1(word.Value(value.Pair{})); got != 3 {
		t.Fatalf("pair = %d, want 3", got)
	}
	if got := w1(word.Value(value.Str("abcd"))); got != 5 {
		t.Fatalf("string = %d, want 5", got)
	}
}

func TestContCosts(t *testing.T) {
	rho2 := env.Empty().ExtendSyms(env.InternAll([]string{"x", "y"}), []env.Location{1, 2})
	var k value.Cont = value.Halt{}
	if got := w1(word.Cont(k)); got != 1 {
		t.Fatalf("halt = %d", got)
	}
	k = &value.Select{Then: &ast.Var{Name: "a"}, Else: &ast.Var{Name: "b"}, Env: rho2, K: k}
	// 1 + |Dom ρ| + space(halt) = 1 + 2 + 1
	if got := w1(word.Cont(k)); got != 4 {
		t.Fatalf("select = %d, want 4", got)
	}
	k = value.NewPush(
		[]ast.Expr{&ast.Var{Name: "f"}, &ast.Var{Name: "e"}, &ast.Var{Name: "c"}, &ast.Var{Name: "d"}}, []int{0, 2, 3, 1},
		[]value.Value{value.Bool(true), value.Bool(false)}, rho2, k)
	// 1 + m(1) + n(2) + 2 + 4
	if got := w1(word.Cont(k)); got != 10 {
		t.Fatalf("push = %d, want 10", got)
	}
	k2 := &value.Call{Args: []value.Value{value.Bool(true)}, K: value.Halt{}}
	// 1 + 1 + 1
	if got := w1(word.Cont(k2)); got != 3 {
		t.Fatalf("call = %d, want 3", got)
	}
	k3 := &value.Return{Env: rho2, K: value.Halt{}}
	if got := w1(word.Cont(k3)); got != 4 {
		t.Fatalf("return = %d, want 4", got)
	}
	k4 := &value.ReturnStack{Del: []env.Location{9}, Env: rho2, K: value.Halt{}}
	if got := w1(word.Cont(k4)); got != 4 {
		t.Fatalf("return-stack = %d, want 4", got)
	}
}

func TestStoreCost(t *testing.T) {
	st := value.NewStore()
	st.Alloc(value.NewNum(1)) // 1 + 2
	st.Alloc(value.Null{})    // 1 + 1
	if got := w1(word.Store(st)); got != 5 {
		t.Fatalf("store = %d, want 5", got)
	}
}

func TestFlatConfig(t *testing.T) {
	st := value.NewStore()
	loc := st.Alloc(value.NewNum(3)) // store: 1 + 3 = 4... bitlen(3)=2 → value 3, slot 4
	rho := env.Empty().ExtendSyms(env.InternAll([]string{"x"}), []env.Location{loc})
	// Expression configuration: |Dom ρ| + space(halt) + space(σ) = 1 + 1 + 4.
	if got := word.Flat(nil, rho, value.Halt{}, st); got != 6 {
		t.Fatalf("flat expr config = %d, want 6", got)
	}
	// Value configuration adds space(v).
	if got := word.Flat(value.Bool(true), rho, value.Halt{}, st); got != 7 {
		t.Fatalf("flat value config = %d, want 7", got)
	}
}

func TestEscapeCostIncludesContinuation(t *testing.T) {
	rho := env.Empty().ExtendSyms(env.InternAll([]string{"x"}), []env.Location{1})
	esc := value.Escape{Tag: 0, K: &value.Return{Env: rho, K: value.Halt{}}}
	// 1 + (1 + 1 + 1)
	if got := w1(word.Value(esc)); got != 4 {
		t.Fatalf("escape = %d, want 4", got)
	}
	// The model prices only the one-word shell; the Measurer adds the
	// retained continuation (so the DeltaMeter can memoize it).
	if got := Word.Value(esc); got != (Cost{Units: 1}) {
		t.Fatalf("model escape shell = %+v, want {Units:1}", got)
	}
}

// TestGuardedEscapeKeepsContinuation wraps an escape that retains a
// 10-frame continuation in one guard and then in two. Figure 7 charges the
// retained continuation however deep the guard chain is, so the second
// guard adds exactly its own shell: a header word and two references. The
// DeltaMeter must charge the same for each in the value register.
func TestGuardedEscapeKeepsContinuation(t *testing.T) {
	rho := env.Empty().ExtendSyms(env.InternAll([]string{"x"}), []env.Location{1})
	var k value.Cont = value.Halt{}
	for i := 0; i < 9; i++ {
		k = &value.Return{Env: rho, K: k}
	}
	ctc := &value.ArrowContract{Dom: []value.Value{value.Bool(true)}, Cod: value.Bool(true)}
	esc := value.Escape{K: k}
	once := value.Guarded{Proc: esc, Ctc: ctc}
	twice := value.Guarded{Proc: once, Ctc: ctc}
	shell := Cost{Units: 1, Ptrs: 2}
	if got, want := word.Value(once), shell.Add(word.Value(esc)); got != want {
		t.Fatalf("one guard = %+v, want %+v", got, want)
	}
	if got, want := word.Value(twice), shell.Add(word.Value(once)); got != want {
		t.Fatalf("two guards = %+v, want %+v (one guard %+v)", got, want, word.Value(once))
	}
	st := value.NewStore()
	delta := NewDeltaMeter(Word)
	delta.Attach(st)
	base := delta.Flat(nil, env.Empty(), value.Halt{}, st)
	for _, v := range []value.Value{esc, once, twice} {
		if got, want := delta.Flat(v, env.Empty(), value.Halt{}, st)-base, word.Value(v).At(1); got != want {
			t.Fatalf("delta %T = %d, oracle %d", v, got, want)
		}
	}
}

func TestEscapeCostLinked(t *testing.T) {
	// Linked: the escape costs its shell plus its retained frames, with the
	// saved environment folded into the global binding set instead of being
	// charged per frame.
	rho := env.Empty().ExtendSyms(env.InternAll([]string{"x", "y"}), []env.Location{1, 2})
	esc := value.Escape{Tag: 0, K: &value.Return{Env: rho, K: value.Halt{}}}
	w := newLinkedWalker(Word)
	// shell 1 + return 1 + halt 1; the two bindings go to the global set.
	if got := w.valueSpace(esc); got != (Cost{Units: 3}) {
		t.Fatalf("linked escape = %+v, want {Units:3}", got)
	}
	if len(w.bindings) != 2 {
		t.Fatalf("escape env must contribute 2 bindings, got %d", len(w.bindings))
	}
}

func TestLogModelPtrWidth(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 1023: 10, 1024: 11}
	for live, want := range cases {
		if got := Log.PtrWidth(live); got != want {
			t.Errorf("PtrWidth(%d) = %d, want %d", live, got, want)
		}
	}
	if Word.PtrWidth(1<<20) != 1 || Fixnum.PtrWidth(1<<20) != 1 {
		t.Error("word and fixnum pointers must stay one word")
	}
}

func TestLogModelFlatScalesWithLiveStore(t *testing.T) {
	// A store of n pairs holds 2n pointer words; under LogModel each costs
	// ⌈log2 n'⌉ where n' is the live cell count, so the flat total must
	// exceed the word-model total once the store outgrows 2 cells.
	st := value.NewStore()
	for i := 0; i < 64; i++ {
		st.Alloc(value.Pair{})
	}
	logFlat := logm.Flat(nil, env.Empty(), value.Halt{}, st)
	wordFlat := word.Flat(nil, env.Empty(), value.Halt{}, st)
	// 64 cells → width 7: store = 64·(1 + 1 + 2·7) = 1024, + halt 1.
	if logFlat != 1025 {
		t.Fatalf("log flat = %d, want 1025", logFlat)
	}
	if wordFlat != 64*4+1 {
		t.Fatalf("word flat = %d, want 257", wordFlat)
	}
}

func TestModelByName(t *testing.T) {
	for name, want := range map[string]CostModel{
		"": Word, "word": Word, "fixnum": Fixnum, "log": Log,
	} {
		got, err := ModelByName(name)
		if err != nil || got != want {
			t.Errorf("ModelByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ModelByName("logarithmic"); err == nil {
		t.Error("ModelByName must reject unknown names")
	}
	for _, m := range Models {
		if got, err := ModelByName(m.Name()); err != nil || got != m {
			t.Errorf("round trip %q failed: %v, %v", m.Name(), got, err)
		}
	}
}

func TestLinkedCountsSharedBindingsOnce(t *testing.T) {
	// Two closures over the same environment: flat charges the bindings
	// twice, linked once.
	st := value.NewStore()
	x := st.Alloc(value.NewNum(1))
	y := st.Alloc(value.NewNum(2))
	rho := env.Empty().ExtendSyms(env.InternAll([]string{"x", "y"}), []env.Location{x, y})
	lam := &ast.Lambda{Body: &ast.Var{Name: "x"}}
	t1 := st.Alloc(value.Unspecified{})
	t2 := st.Alloc(value.Unspecified{})
	st.Alloc(value.Closure{Tag: t1, Lam: lam, Env: rho})
	st.Alloc(value.Closure{Tag: t2, Lam: lam, Env: rho})

	flat := word.Flat(nil, env.Empty(), value.Halt{}, st)
	linked := word.Linked(nil, env.Empty(), value.Halt{}, st)
	if linked >= flat {
		t.Fatalf("linked (%d) must beat flat (%d) on shared environments", linked, flat)
	}
	// Flat: closures cost (1+2) each; linked: 1 each plus 2 shared bindings.
	if flat-linked != 2 {
		t.Fatalf("expected exactly 2 words saved, got %d (flat=%d linked=%d)", flat-linked, flat, linked)
	}
}

func TestLinkedDistinctBindingsNotShared(t *testing.T) {
	st := value.NewStore()
	x1 := st.Alloc(value.NewNum(1))
	x2 := st.Alloc(value.NewNum(2))
	rho1 := env.Empty().ExtendSyms(env.InternAll([]string{"x"}), []env.Location{x1})
	rho2 := env.Empty().ExtendSyms(env.InternAll([]string{"x"}), []env.Location{x2})
	lam := &ast.Lambda{Body: &ast.Var{Name: "x"}}
	st.Alloc(value.Closure{Tag: st.Alloc(value.Unspecified{}), Lam: lam, Env: rho1})
	st.Alloc(value.Closure{Tag: st.Alloc(value.Unspecified{}), Lam: lam, Env: rho2})
	linked := word.Linked(nil, env.Empty(), value.Halt{}, st)
	flat := word.Flat(nil, env.Empty(), value.Halt{}, st)
	// Same identifier, different locations: two distinct bindings, no saving.
	if linked != flat {
		t.Fatalf("distinct bindings must not be merged: linked=%d flat=%d", linked, flat)
	}
}

func TestLinkedConfigEnvShared(t *testing.T) {
	// The configuration register and a continuation frame share an
	// environment: linked counts it once.
	st := value.NewStore()
	x := st.Alloc(value.NewNum(1))
	rho := env.Empty().ExtendSyms(env.InternAll([]string{"x"}), []env.Location{x})
	k := &value.Return{Env: rho, K: value.Halt{}}
	flat := word.Flat(nil, rho, k, st)
	linked := word.Linked(nil, rho, k, st)
	if flat-linked != 1 {
		t.Fatalf("one shared binding should save one word: flat=%d linked=%d", flat, linked)
	}
}

func TestLinkedSharedEscapeContinuationCountedOnce(t *testing.T) {
	// An escape whose continuation is the live continuation must not double
	// count the frames.
	st := value.NewStore()
	rho := env.Empty().ExtendSyms(env.InternAll([]string{"x"}), []env.Location{st.Alloc(value.NewNum(1))})
	var live value.Cont = &value.Return{Env: rho, K: value.Halt{}}
	st.Alloc(value.Escape{Tag: st.Alloc(value.Unspecified{}), K: live})
	withEscape := word.Linked(nil, env.Empty(), live, st)

	st2 := value.NewStore()
	rho2 := env.Empty().ExtendSyms(env.InternAll([]string{"x"}), []env.Location{st2.Alloc(value.NewNum(1))})
	var live2 value.Cont = &value.Return{Env: rho2, K: value.Halt{}}
	st2.Alloc(value.Unspecified{}) // tag placeholder for comparability
	st2.Alloc(value.Unspecified{}) // escape replaced by an atom
	withoutEscape := word.Linked(nil, env.Empty(), live2, st2)

	// The escape adds its own word, but the shared frames add nothing.
	if withEscape-withoutEscape > 1 {
		t.Fatalf("shared continuation double-counted: with=%d without=%d", withEscape, withoutEscape)
	}
}

func TestPropertyLinkedNeverExceedsFlat(t *testing.T) {
	// Build random configurations and check U <= S pointwise — under every
	// cost model (linked only elides binding copies; it can never add).
	for _, m := range Models {
		meas := NewMeasurer(m)
		f := func(names []string, numVals []int64, depth uint8) bool {
			st := value.NewStore()
			var locs []env.Location
			for _, n := range numVals {
				locs = append(locs, st.Alloc(value.NewNum(n)))
			}
			if len(locs) == 0 {
				locs = append(locs, st.Alloc(value.Null{}))
			}
			clean := make([]string, 0, len(names))
			for _, n := range names {
				if n != "" {
					clean = append(clean, n)
				}
			}
			used := make([]env.Location, len(clean))
			for i := range clean {
				used[i] = locs[i%len(locs)]
			}
			rho := env.Empty().ExtendSyms(env.InternAll(clean), used)
			var k value.Cont = value.Halt{}
			for i := 0; i < int(depth%5); i++ {
				k = &value.Return{Env: rho, K: k}
			}
			lam := &ast.Lambda{Body: &ast.Var{Name: "x"}}
			st.Alloc(value.Closure{Tag: st.Alloc(value.Unspecified{}), Lam: lam, Env: rho})
			flat := meas.Flat(nil, rho, k, st)
			linked := meas.Linked(nil, rho, k, st)
			return linked <= flat
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("model %s: %v", m.Name(), err)
		}
	}
}

func TestPropertyFixnumNeverExceedsWordForBigNums(t *testing.T) {
	f := func(raw int64) bool {
		z := raw
		if z < 0 {
			z = -z
		}
		n := value.Num{Int: big.NewInt(z | (1 << 40))} // force bignum-sized
		return w1(fix.Value(n)) <= w1(word.Value(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
