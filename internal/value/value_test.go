package value

import (
	"testing"

	"tailspace/internal/ast"
	"tailspace/internal/env"
)

func TestTruthy(t *testing.T) {
	if Truthy(Bool(false)) {
		t.Fatal("#f is false")
	}
	for _, v := range []Value{Bool(true), NewNum(0), Null{}, Sym("x"), Str(""), Unspecified{}} {
		if !Truthy(v) {
			t.Fatalf("%#v should be true", v)
		}
	}
}

func TestIsProcedure(t *testing.T) {
	if !IsProcedure(Closure{}) || !IsProcedure(Escape{}) || !IsProcedure(&Primop{}) {
		t.Fatal("procedures misclassified")
	}
	if IsProcedure(NewNum(1)) || IsProcedure(Null{}) {
		t.Fatal("non-procedures misclassified")
	}
}

func TestStoreAllocGet(t *testing.T) {
	s := NewStore()
	l := s.Alloc(NewNum(42))
	v, ok := s.Get(l)
	if !ok {
		t.Fatal("missing")
	}
	if n := v.(Num); n.Int.Int64() != 42 {
		t.Fatalf("got %v", n)
	}
	if s.Size() != 1 || s.Allocs != 1 {
		t.Fatalf("size=%d allocs=%d", s.Size(), s.Allocs)
	}
}

func TestStoreFreshLocations(t *testing.T) {
	s := NewStore()
	a := s.Alloc(Null{})
	b := s.Alloc(Null{})
	if a == b {
		t.Fatal("locations must be fresh")
	}
}

func TestStoreSet(t *testing.T) {
	s := NewStore()
	l := s.Alloc(Undefined{})
	if !s.Set(l, NewNum(1)) {
		t.Fatal("set failed")
	}
	if s.Set(env.Location(999), NewNum(1)) {
		t.Fatal("set of unallocated location must fail")
	}
}

func TestStoreDeleteAndAllocsMonotone(t *testing.T) {
	s := NewStore()
	l := s.Alloc(Null{})
	s.Delete(l)
	if s.Size() != 0 {
		t.Fatal("delete failed")
	}
	if s.Allocs != 1 {
		t.Fatal("Allocs must be monotone")
	}
}

// rootsVal puts root locations in the value register: a vector mentions
// exactly its element locations.
func rootsVal(ls ...env.Location) Value { return Vector{ElemLocs: ls} }

func TestReachabilityThroughPairs(t *testing.T) {
	s := NewStore()
	leaf := s.Alloc(NewNum(1))
	mid := s.Alloc(Pair{CarLoc: leaf, CdrLoc: leaf})
	orphan := s.Alloc(NewNum(9))
	reach := s.Reachable(rootsVal(mid), env.Empty(), nil)
	if !reach[mid] || !reach[leaf] {
		t.Fatal("pair fields must be reachable")
	}
	if reach[orphan] {
		t.Fatal("orphan must be unreachable")
	}
}

func TestReachabilityThroughClosureEnv(t *testing.T) {
	s := NewStore()
	captured := s.Alloc(NewNum(5))
	tag := s.Alloc(Unspecified{})
	clo := Closure{
		Tag: tag,
		Lam: &ast.Lambda{Params: nil, Body: &ast.Var{Name: "x"}},
		Env: env.Empty().ExtendSyms(env.InternAll([]string{"x"}), []env.Location{captured}),
	}
	holder := s.Alloc(clo)
	reach := s.Reachable(rootsVal(holder), env.Empty(), nil)
	for _, l := range []env.Location{holder, captured, tag} {
		if !reach[l] {
			t.Fatalf("location %d must be reachable", l)
		}
	}
}

func TestReachabilityThroughVector(t *testing.T) {
	s := NewStore()
	a := s.Alloc(NewNum(1))
	b := s.Alloc(NewNum(2))
	vec := s.Alloc(Vector{ElemLocs: []env.Location{a, b}})
	reach := s.Reachable(rootsVal(vec), env.Empty(), nil)
	if !reach[a] || !reach[b] {
		t.Fatal("vector elements must be reachable")
	}
}

func TestReachabilityCycle(t *testing.T) {
	s := NewStore()
	a := s.Alloc(Undefined{})
	b := s.Alloc(Pair{CarLoc: a, CdrLoc: a})
	s.Set(a, Pair{CarLoc: b, CdrLoc: b}) // cycle
	reach := s.Reachable(rootsVal(a), env.Empty(), nil)
	if !reach[a] || !reach[b] {
		t.Fatal("cycle must be fully reachable")
	}
	if len(reach) != 2 {
		t.Fatalf("reach = %v", reach)
	}
}

func TestCollect(t *testing.T) {
	s := NewStore()
	keep := s.Alloc(NewNum(1))
	s.Alloc(NewNum(2))
	s.Alloc(NewNum(3))
	n := s.Collect(rootsVal(keep), env.Empty(), nil)
	if n != 2 || s.Size() != 1 {
		t.Fatalf("collected=%d size=%d", n, s.Size())
	}
	if _, ok := s.Get(keep); !ok {
		t.Fatal("root must survive")
	}
}

func TestCollectEmptyRoots(t *testing.T) {
	s := NewStore()
	s.Alloc(NewNum(1))
	if n := s.Collect(nil, env.Empty(), nil); n != 1 || s.Size() != 0 {
		t.Fatalf("collected=%d", n)
	}
}

func TestOccursIn(t *testing.T) {
	s := NewStore()
	target := s.Alloc(NewNum(1))
	s.Alloc(Pair{CarLoc: target, CdrLoc: target})
	lonely := s.Alloc(NewNum(2))
	// inner is mentioned only by outer, and both are candidates: deleting
	// them together leaves nothing dangling.
	inner := s.Alloc(NewNum(3))
	outer := s.Alloc(Pair{CarLoc: inner, CdrLoc: inner})
	held := s.OccursIn([]env.Location{target, lonely, inner, outer})
	want := []bool{true, false, false, false}
	for i := range want {
		if held[i] != want[i] {
			t.Fatalf("OccursIn = %v, want %v", held, want)
		}
	}
}

func TestContLocations(t *testing.T) {
	e := env.Empty().ExtendSyms(env.InternAll([]string{"x"}), []env.Location{3})
	var k Cont = Halt{}
	k = &Select{Then: &ast.Var{Name: "a"}, Else: &ast.Var{Name: "b"}, Env: e, K: k}
	k = &Push{Done: []Value{Pair{CarLoc: 7, CdrLoc: 8}}, Env: env.Empty(), K: k}
	locs := ContLocations(k, env.Unstamped, nil)
	want := map[env.Location]bool{3: true, 7: true, 8: true}
	for _, l := range locs {
		delete(want, l)
	}
	if len(want) != 0 {
		t.Fatalf("missing locations %v in %v", want, locs)
	}
}

func TestContLocationsIncludesDeletionSet(t *testing.T) {
	// A occurs within return:(A,ρ,κ), so stack frames root their variables
	// until they return — the retention that Theorem 25(a) exploits.
	k := &ReturnStack{Del: []env.Location{5}, Env: env.Empty(), K: Halt{}}
	locs := ContLocations(k, env.Unstamped, nil)
	found := false
	for _, l := range locs {
		if l == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("deletion-set locations must be roots until the frame returns")
	}
}

func TestReturnEnvironmentsAreDead(t *testing.T) {
	// The environment a return continuation restores is charged by Figure 7
	// but never dereferenced, so it is not a root; only Z_stack's deletion
	// set roots frame locations. This is what separates S_stack from S_gc
	// (Theorem 25(a)).
	rho := env.Empty().ExtendSyms(env.InternAll([]string{"v"}), []env.Location{42})
	gcFrame := &Return{Env: rho, K: Halt{}}
	for _, l := range ContLocations(gcFrame, env.Unstamped, nil) {
		if l == 42 {
			t.Fatal("Z_gc return environments must not root their locations")
		}
	}
	stackFrame := &ReturnStack{Del: nil, Env: rho, K: Halt{}}
	for _, l := range ContLocations(stackFrame, env.Unstamped, nil) {
		if l == 42 {
			t.Fatal("Z_stack return environments must not root their locations either")
		}
	}
}

func TestDepth(t *testing.T) {
	var k Cont = Halt{}
	if Depth(k) != 1 {
		t.Fatalf("halt depth = %d", Depth(k))
	}
	k = &Return{Env: env.Empty(), K: k}
	k = &Return{Env: env.Empty(), K: k}
	if Depth(k) != 3 {
		t.Fatalf("depth = %d", Depth(k))
	}
}

func TestEscapeLocations(t *testing.T) {
	e := env.Empty().ExtendSyms(env.InternAll([]string{"y"}), []env.Location{11})
	esc := Escape{Tag: 10, K: &Assign{Name: "y", Env: e, K: Halt{}}}
	locs := Locations(esc, env.Unstamped, nil)
	found := map[env.Location]bool{}
	for _, l := range locs {
		found[l] = true
	}
	if !found[10] || !found[11] {
		t.Fatalf("escape must root its tag and continuation: %v", locs)
	}
}
