package env

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// syms interns a list of spellings, for building test environments.
func syms(names ...string) []Symbol { return InternAll(names) }

func TestEmpty(t *testing.T) {
	e := Empty()
	if e.Size() != 0 || !e.IsEmpty() {
		t.Fatal("empty env should have size 0")
	}
	if _, ok := e.LookupSym(Intern("x")); ok {
		t.Fatal("empty env should not resolve x")
	}
}

func TestExtendAndLookup(t *testing.T) {
	e := Empty().ExtendSyms(syms("x", "y"), []Location{1, 2})
	if l, ok := e.LookupSym(Intern("x")); !ok || l != 1 {
		t.Fatalf("x -> %v %v", l, ok)
	}
	if l, ok := e.LookupSym(Intern("y")); !ok || l != 2 {
		t.Fatalf("y -> %v %v", l, ok)
	}
	if e.Size() != 2 {
		t.Fatalf("size = %d", e.Size())
	}
}

func TestExtendShadows(t *testing.T) {
	x := Intern("x")
	e := Empty().ExtendSyms([]Symbol{x}, []Location{1})
	e2 := e.ExtendSyms([]Symbol{x}, []Location{9})
	if l, _ := e2.LookupSym(x); l != 9 {
		t.Fatalf("shadowed x = %v", l)
	}
	// The original environment is unchanged (persistence).
	if l, _ := e.LookupSym(x); l != 1 {
		t.Fatalf("original x = %v", l)
	}
	if e2.Size() != 1 {
		t.Fatalf("shadowing must not grow the domain: %d", e2.Size())
	}
}

// TestExtendLaterEntryWins pins shadowing within one rib: a repeated
// identifier binds its last location and counts once in |Dom ρ|.
func TestExtendLaterEntryWins(t *testing.T) {
	x := Intern("x")
	e := Empty().ExtendSyms([]Symbol{x, x}, []Location{1, 2})
	if l, _ := e.LookupSym(x); l != 2 {
		t.Fatalf("later binding should win: %v", l)
	}
	if e.Size() != 1 {
		t.Fatalf("repeated identifier grew the domain: %d", e.Size())
	}
}

func TestExtendMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Empty().ExtendSyms(syms("x"), nil)
}

func TestRestrict(t *testing.T) {
	e := Empty().ExtendSyms(syms("a", "b", "c"), []Location{1, 2, 3})
	r := e.RestrictSyms(syms("a", "c", "zz"))
	if r.Size() != 2 {
		t.Fatalf("size = %d", r.Size())
	}
	if _, ok := r.LookupSym(Intern("b")); ok {
		t.Fatal("b should be gone")
	}
	if l, ok := r.LookupSym(Intern("c")); !ok || l != 3 {
		t.Fatal("c should survive")
	}
}

func TestRestrictTo(t *testing.T) {
	e := Empty().ExtendSyms(syms("a", "b"), []Location{1, 2})
	r := e.RestrictToSym(Intern("b"))
	if r.Size() != 1 {
		t.Fatalf("size = %d", r.Size())
	}
	if r := e.RestrictToSym(Intern("zz")); !r.IsEmpty() {
		t.Fatalf("restriction to an unbound identifier = %v", r.Domain())
	}
}

func TestDomainSorted(t *testing.T) {
	e := Empty().ExtendSyms(syms("z", "a", "m"), []Location{1, 2, 3})
	d := e.Domain()
	if len(d) != 3 || d[0] != "a" || d[1] != "m" || d[2] != "z" {
		t.Fatalf("domain = %v", d)
	}
}

// TestGraphAndLocations checks graph(ρ) — the (identifier, location) pairs
// EachSym visits — and Ran ρ when two identifiers share a location.
func TestGraphAndLocations(t *testing.T) {
	e := Empty().ExtendSyms(syms("x", "y"), []Location{7, 7})
	graph := map[Symbol]Location{}
	e.EachSym(func(s Symbol, l Location) { graph[s] = l })
	if len(graph) != 2 || graph[Intern("x")] != 7 || graph[Intern("y")] != 7 {
		t.Fatalf("graph = %v", graph)
	}
	locs := e.Locations()
	if len(locs) != 2 || locs[0] != 7 || locs[1] != 7 {
		t.Fatalf("locations = %v", locs)
	}
}

func TestPropertyRestrictShrinks(t *testing.T) {
	f := func(names []string, keepNames []string) bool {
		locs := make([]Location, len(names))
		for i := range locs {
			locs[i] = Location(i)
		}
		e := Empty().ExtendSyms(InternAll(names), locs)
		keep := InternAll(keepNames)
		r := e.RestrictSyms(keep)
		if r.Size() > e.Size() {
			return false
		}
		// Every surviving binding agrees with the original.
		ok := true
		r.EachSym(func(s Symbol, loc Location) {
			orig, found := e.LookupSym(s)
			if !found || orig != loc {
				ok = false
			}
			inKeep := false
			for _, k := range keep {
				inKeep = inKeep || k == s
			}
			if !inKeep {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyExtendLookup(t *testing.T) {
	f := func(base []string, add []string) bool {
		baseLocs := make([]Location, len(base))
		for i := range baseLocs {
			baseLocs[i] = Location(i)
		}
		addLocs := make([]Location, len(add))
		for i := range addLocs {
			addLocs[i] = Location(1000 + i)
		}
		e := Empty().ExtendSyms(InternAll(base), baseLocs).ExtendSyms(InternAll(add), addLocs)
		// Every added name resolves to its last-added location.
		last := make(map[string]Location)
		for i, n := range add {
			last[n] = addLocs[i]
		}
		for n, want := range last {
			if got, ok := e.LookupSym(Intern(n)); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDistinctBuildsExtendSymsRib pins Distinct to the rib ExtendSyms
// builds over the empty environment for distinct identifiers, field for
// field: ρ0's 95 primitive names are built this way on every run.
func TestDistinctBuildsExtendSymsRib(t *testing.T) {
	for _, n := range []int{0, 1, 2, 95} {
		names := make([]string, n)
		locs := make([]Location, n)
		for i := range names {
			names[i] = fmt.Sprintf("distinct-%d", i)
			locs[i] = Location(3*n - i) // not in order: top is the largest
		}
		ss := InternAll(names)
		got, want := Distinct(ss, locs), Empty().ExtendSyms(ss, locs)
		if (got.r == nil) != (want.r == nil) || got.r != nil && !reflect.DeepEqual(*got.r, *want.r) {
			t.Errorf("n=%d: Distinct built %+v, ExtendSyms %+v", n, got.r, want.r)
		}
	}
}
