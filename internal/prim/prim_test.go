package prim

import (
	"math/big"
	"testing"

	"tailspace/internal/env"
	"tailspace/internal/value"
)

func apply(t *testing.T, name string, args ...value.Value) value.Value {
	t.Helper()
	st := value.NewStore()
	return applyIn(t, st, name, args...)
}

func applyIn(t *testing.T, st *value.Store, name string, args ...value.Value) value.Value {
	t.Helper()
	p, ok := Lookup(name)
	if !ok {
		t.Fatalf("primitive %s not registered", name)
	}
	v, err := p.Apply(st, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func applyErr(t *testing.T, name string, args ...value.Value) error {
	t.Helper()
	st := value.NewStore()
	p, ok := Lookup(name)
	if !ok {
		t.Fatalf("primitive %s not registered", name)
	}
	_, err := p.Apply(st, args)
	if err == nil {
		t.Fatalf("%s: expected error", name)
	}
	return err
}

func num(v int64) value.Num { return value.NewNum(v) }

func wantInt(t *testing.T, v value.Value, want int64) {
	t.Helper()
	n, ok := v.(value.Num)
	if !ok {
		t.Fatalf("got %T, want Num", v)
	}
	if n.Int.Int64() != want {
		t.Fatalf("got %v, want %d", n.Int, want)
	}
}

func wantBool(t *testing.T, v value.Value, want bool) {
	t.Helper()
	b, ok := v.(value.Bool)
	if !ok || bool(b) != want {
		t.Fatalf("got %#v, want %v", v, want)
	}
}

func TestArithmetic(t *testing.T) {
	wantInt(t, apply(t, "+"), 0)
	wantInt(t, apply(t, "+", num(1), num(2), num(3)), 6)
	wantInt(t, apply(t, "-", num(10), num(3)), 7)
	wantInt(t, apply(t, "-", num(5)), -5)
	wantInt(t, apply(t, "*", num(4), num(5)), 20)
	wantInt(t, apply(t, "*"), 1)
	wantInt(t, apply(t, "quotient", num(17), num(5)), 3)
	wantInt(t, apply(t, "remainder", num(17), num(5)), 2)
	wantInt(t, apply(t, "remainder", num(-17), num(5)), -2)
	wantInt(t, apply(t, "modulo", num(-17), num(5)), 3)
	wantInt(t, apply(t, "modulo", num(17), num(-5)), -3)
	wantInt(t, apply(t, "abs", num(-9)), 9)
	wantInt(t, apply(t, "expt", num(2), num(10)), 1024)
	wantInt(t, apply(t, "min", num(3), num(1), num(2)), 1)
	wantInt(t, apply(t, "max", num(3), num(7), num(2)), 7)
}

func TestBignumArithmetic(t *testing.T) {
	big1, _ := new(big.Int).SetString("99999999999999999999999999", 10)
	v := apply(t, "*", value.Num{Int: big1}, value.Num{Int: big1})
	n := v.(value.Num)
	want := new(big.Int).Mul(big1, big1)
	if n.Int.Cmp(want) != 0 {
		t.Fatalf("got %v", n.Int)
	}
}

func TestDivisionByZero(t *testing.T) {
	applyErr(t, "quotient", num(1), num(0))
	applyErr(t, "remainder", num(1), num(0))
	applyErr(t, "modulo", num(1), num(0))
}

func TestComparisons(t *testing.T) {
	wantBool(t, apply(t, "=", num(2), num(2), num(2)), true)
	wantBool(t, apply(t, "=", num(2), num(3)), false)
	wantBool(t, apply(t, "<", num(1), num(2), num(3)), true)
	wantBool(t, apply(t, "<", num(1), num(3), num(2)), false)
	wantBool(t, apply(t, ">", num(3), num(2)), true)
	wantBool(t, apply(t, "<=", num(2), num(2)), true)
	wantBool(t, apply(t, ">=", num(2), num(3)), false)
}

func TestNumericPredicates(t *testing.T) {
	wantBool(t, apply(t, "zero?", num(0)), true)
	wantBool(t, apply(t, "zero?", num(1)), false)
	wantBool(t, apply(t, "positive?", num(5)), true)
	wantBool(t, apply(t, "negative?", num(-5)), true)
	wantBool(t, apply(t, "even?", num(4)), true)
	wantBool(t, apply(t, "odd?", num(4)), false)
}

func TestTypePredicates(t *testing.T) {
	st := value.NewStore()
	pair := consOf(st, num(1), value.Null{})
	wantBool(t, applyIn(t, st, "pair?", pair), true)
	wantBool(t, applyIn(t, st, "null?", value.Null{}), true)
	wantBool(t, applyIn(t, st, "null?", pair), false)
	wantBool(t, applyIn(t, st, "number?", num(3)), true)
	wantBool(t, applyIn(t, st, "symbol?", value.Sym("a")), true)
	wantBool(t, applyIn(t, st, "string?", value.Str("s")), true)
	wantBool(t, applyIn(t, st, "char?", value.Char('c')), true)
	wantBool(t, applyIn(t, st, "boolean?", value.Bool(true)), true)
	wantBool(t, applyIn(t, st, "vector?", value.Vector{}), true)
	p, _ := Lookup("+")
	wantBool(t, applyIn(t, st, "procedure?", p), true)
}

func TestNot(t *testing.T) {
	wantBool(t, apply(t, "not", value.Bool(false)), true)
	wantBool(t, apply(t, "not", num(0)), false)
}

func TestConsCarCdr(t *testing.T) {
	st := value.NewStore()
	p := applyIn(t, st, "cons", num(1), num(2))
	wantInt(t, applyIn(t, st, "car", p), 1)
	wantInt(t, applyIn(t, st, "cdr", p), 2)
}

func TestSetCarCdr(t *testing.T) {
	st := value.NewStore()
	p := applyIn(t, st, "cons", num(1), num(2))
	applyIn(t, st, "set-car!", p, num(10))
	applyIn(t, st, "set-cdr!", p, num(20))
	wantInt(t, applyIn(t, st, "car", p), 10)
	wantInt(t, applyIn(t, st, "cdr", p), 20)
}

func TestCxrCompositions(t *testing.T) {
	st := value.NewStore()
	l := applyIn(t, st, "list", num(1), num(2), num(3), num(4))
	wantInt(t, applyIn(t, st, "cadr", l), 2)
	wantInt(t, applyIn(t, st, "caddr", l), 3)
	wantInt(t, applyIn(t, st, "cadddr", l), 4)
	inner := applyIn(t, st, "cons", applyIn(t, st, "cons", num(7), num(8)), num(9))
	wantInt(t, applyIn(t, st, "caar", inner), 7)
	wantInt(t, applyIn(t, st, "cdar", inner), 8)
}

func TestListLengthRef(t *testing.T) {
	st := value.NewStore()
	l := applyIn(t, st, "list", num(10), num(20), num(30))
	wantInt(t, applyIn(t, st, "length", l), 3)
	wantInt(t, applyIn(t, st, "list-ref", l, num(0)), 10)
	wantInt(t, applyIn(t, st, "list-ref", l, num(2)), 30)
	wantInt(t, applyIn(t, st, "length", value.Null{}), 0)
}

func TestListTail(t *testing.T) {
	st := value.NewStore()
	l := applyIn(t, st, "list", num(1), num(2), num(3))
	tail := applyIn(t, st, "list-tail", l, num(2))
	wantInt(t, applyIn(t, st, "car", tail), 3)
}

func TestAppendReverse(t *testing.T) {
	st := value.NewStore()
	a := applyIn(t, st, "list", num(1), num(2))
	b := applyIn(t, st, "list", num(3))
	ab := applyIn(t, st, "append", a, b)
	wantInt(t, applyIn(t, st, "length", ab), 3)
	wantInt(t, applyIn(t, st, "list-ref", ab, num(2)), 3)
	r := applyIn(t, st, "reverse", ab)
	wantInt(t, applyIn(t, st, "list-ref", r, num(0)), 3)
	if _, ok := applyIn(t, st, "append").(value.Null); !ok {
		t.Fatal("(append) should be ()")
	}
}

func TestMemv(t *testing.T) {
	st := value.NewStore()
	l := applyIn(t, st, "list", num(1), num(2), num(3))
	hit := applyIn(t, st, "memv", num(2), l)
	wantInt(t, applyIn(t, st, "car", hit), 2)
	wantBool(t, applyIn(t, st, "memv", num(9), l), false)
}

func TestAssv(t *testing.T) {
	st := value.NewStore()
	e1 := applyIn(t, st, "cons", num(1), value.Sym("one"))
	e2 := applyIn(t, st, "cons", num(2), value.Sym("two"))
	al := applyIn(t, st, "list", e1, e2)
	hit := applyIn(t, st, "assv", num(2), al)
	if s, ok := applyIn(t, st, "cdr", hit).(value.Sym); !ok || s != "two" {
		t.Fatalf("got %#v", hit)
	}
	wantBool(t, applyIn(t, st, "assv", num(3), al), false)
}

func TestVectorOps(t *testing.T) {
	st := value.NewStore()
	v := applyIn(t, st, "make-vector", num(3))
	wantInt(t, applyIn(t, st, "vector-length", v), 3)
	wantInt(t, applyIn(t, st, "vector-ref", v, num(0)), 0)
	applyIn(t, st, "vector-set!", v, num(1), num(99))
	wantInt(t, applyIn(t, st, "vector-ref", v, num(1)), 99)
	applyIn(t, st, "vector-fill!", v, num(7))
	wantInt(t, applyIn(t, st, "vector-ref", v, num(2)), 7)
}

func TestMakeVectorWithFill(t *testing.T) {
	st := value.NewStore()
	v := applyIn(t, st, "make-vector", num(2), value.Sym("x"))
	if s, ok := applyIn(t, st, "vector-ref", v, num(1)).(value.Sym); !ok || s != "x" {
		t.Fatal("fill value lost")
	}
}

func TestVectorListConversions(t *testing.T) {
	st := value.NewStore()
	v := applyIn(t, st, "vector", num(1), num(2))
	l := applyIn(t, st, "vector->list", v)
	wantInt(t, applyIn(t, st, "length", l), 2)
	v2 := applyIn(t, st, "list->vector", l)
	wantInt(t, applyIn(t, st, "vector-ref", v2, num(0)), 1)
}

func TestVectorErrors(t *testing.T) {
	applyErr(t, "vector-ref", value.Vector{}, num(0))
	applyErr(t, "make-vector", num(-1))
	applyErr(t, "vector-length", num(3))
}

func TestEqv(t *testing.T) {
	st := value.NewStore()
	wantBool(t, applyIn(t, st, "eqv?", num(3), num(3)), true)
	wantBool(t, applyIn(t, st, "eqv?", value.Sym("a"), value.Sym("a")), true)
	wantBool(t, applyIn(t, st, "eqv?", value.Sym("a"), value.Sym("b")), false)
	p1 := applyIn(t, st, "cons", num(1), num(2))
	p2 := applyIn(t, st, "cons", num(1), num(2))
	wantBool(t, applyIn(t, st, "eqv?", p1, p2), false)
	wantBool(t, applyIn(t, st, "eqv?", p1, p1), true)
}

func TestEqual(t *testing.T) {
	st := value.NewStore()
	p1 := applyIn(t, st, "list", num(1), applyIn(t, st, "list", num(2)))
	p2 := applyIn(t, st, "list", num(1), applyIn(t, st, "list", num(2)))
	wantBool(t, applyIn(t, st, "equal?", p1, p2), true)
	p3 := applyIn(t, st, "list", num(1), num(3))
	wantBool(t, applyIn(t, st, "equal?", p1, p3), false)
}

func TestEqualOnCycle(t *testing.T) {
	st := value.NewStore()
	p := applyIn(t, st, "cons", num(1), value.Null{})
	applyIn(t, st, "set-cdr!", p, p) // cycle
	// Must terminate.
	applyIn(t, st, "equal?", p, p)
}

func TestRandomDeterministicAndBounded(t *testing.T) {
	st := value.NewStore()
	for i := 0; i < 50; i++ {
		v := applyIn(t, st, "random", num(10))
		n := v.(value.Num).Int.Int64()
		if n < 0 || n >= 10 {
			t.Fatalf("random out of range: %d", n)
		}
	}
	applyErr(t, "random", num(0))
}

func TestUndefPrimitive(t *testing.T) {
	v := apply(t, "%undef")
	if _, ok := v.(value.Undefined); !ok {
		t.Fatalf("got %T", v)
	}
}

func TestCallCCFlag(t *testing.T) {
	for _, name := range []string{"call-with-current-continuation", "call/cc"} {
		p, ok := Lookup(name)
		if !ok || !p.CallCC {
			t.Fatalf("%s must be registered with the CallCC flag", name)
		}
	}
}

func TestErrorPrimitive(t *testing.T) {
	err := applyErr(t, "error", value.Str("boom"))
	if err.Error() != "error: boom" {
		t.Fatalf("got %q", err.Error())
	}
}

func TestGlobalBindsEverything(t *testing.T) {
	rho, st := Global()
	if rho.Size() != len(Names()) {
		t.Fatalf("rho0 has %d bindings, want %d", rho.Size(), len(Names()))
	}
	loc, ok := rho.LookupSym(env.Intern("+"))
	if !ok {
		t.Fatal("+ unbound in rho0")
	}
	v, ok := st.Get(loc)
	if !ok {
		t.Fatal("+ location missing from sigma0")
	}
	if p, ok := v.(*value.Primop); !ok || p.Name != "+" {
		t.Fatalf("got %#v", v)
	}
}

func TestTypeErrors(t *testing.T) {
	applyErr(t, "+", value.Sym("x"))
	applyErr(t, "car", num(1))
	applyErr(t, "length", num(1))
	applyErr(t, "list-ref", value.Null{}, num(0))
	applyErr(t, "<", num(1))
}

// BenchmarkGlobal times a run's set-up of ρ0 and σ0: one rib binding every
// primitive's name and one cell per primitive.
func BenchmarkGlobal(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Global()
	}
}
