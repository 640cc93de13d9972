package env

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestInternedLookupMatchesMapReference drives randomized extend/restrict
// chains — drawn from a small name pool so shadowing is frequent — against a
// plain map-of-strings model of the finite-map semantics. Every historical
// environment is re-checked after every operation (persistence: extending a
// chain must not disturb any environment that shares its ribs), and each
// check crosses the full API: LookupSym, Size, EachSym visit-once iteration,
// and the Locations root multiset.
func TestInternedLookupMatchesMapReference(t *testing.T) {
	pool := []string{"a", "b", "c", "d", "e", "f", "x", "y", "z", "shadow"}
	rng := rand.New(rand.NewSource(0x5eed))
	type snap struct {
		e   Env
		ref map[string]Location
	}
	var nextLoc Location
	for trial := 0; trial < 100; trial++ {
		e := Empty()
		ref := map[string]Location{}
		history := []snap{{e, ref}}
		for op := 0; op < 30; op++ {
			switch rng.Intn(4) {
			case 0, 1: // Extend with 1–3 names, duplicates allowed
				n := 1 + rng.Intn(3)
				names := make([]string, n)
				locs := make([]Location, n)
				for i := range names {
					names[i] = pool[rng.Intn(len(pool))]
					nextLoc++
					locs[i] = nextLoc
				}
				e = e.ExtendSyms(InternAll(names), locs)
				next := make(map[string]Location, len(ref)+n)
				for k, v := range ref {
					next[k] = v
				}
				for i, name := range names {
					next[name] = locs[i]
				}
				ref = next
			case 2: // Restrict to a random subset of the pool
				keep := make([]string, 0, len(pool))
				for _, name := range pool {
					if rng.Intn(2) == 0 {
						keep = append(keep, name)
					}
				}
				e = e.RestrictSyms(InternAll(keep))
				next := map[string]Location{}
				for _, name := range keep {
					if l, ok := ref[name]; ok {
						next[name] = l
					}
				}
				ref = next
			case 3: // RestrictSyms with duplicates in the keep list
				name := pool[rng.Intn(len(pool))]
				e = e.RestrictSyms([]Symbol{Intern(name), Intern(name)})
				next := map[string]Location{}
				if l, ok := ref[name]; ok {
					next[name] = l
				}
				ref = next
			}
			history = append(history, snap{e, ref})
		}
		// Persistence: every snapshot must still agree with its model.
		for i, s := range history {
			checkEnvAgainst(t, trial, i, s.e, s.ref, pool)
			if t.Failed() {
				return
			}
		}
	}
}

func checkEnvAgainst(t *testing.T, trial, step int, e Env, ref map[string]Location, pool []string) {
	t.Helper()
	if e.Size() != len(ref) {
		t.Errorf("trial %d step %d: Size=%d want %d", trial, step, e.Size(), len(ref))
	}
	for _, name := range pool {
		wantLoc, wantOK := ref[name]
		gotLoc, gotOK := e.LookupSym(Intern(name))
		if gotOK != wantOK || (wantOK && gotLoc != wantLoc) {
			t.Errorf("trial %d step %d: LookupSym(%q)=(%d,%v) want (%d,%v)",
				trial, step, name, gotLoc, gotOK, wantLoc, wantOK)
		}
	}
	visited := map[string]Location{}
	e.EachSym(func(s Symbol, loc Location) {
		name := SymbolName(s)
		if prev, dup := visited[name]; dup {
			t.Errorf("trial %d step %d: EachSym visited %q twice (%d, %d)", trial, step, name, prev, loc)
		}
		visited[name] = loc
	})
	if len(visited) != len(ref) {
		t.Errorf("trial %d step %d: EachSym visited %d bindings, want %d", trial, step, len(visited), len(ref))
	}
	for name, loc := range ref {
		if visited[name] != loc {
			t.Errorf("trial %d step %d: EachSym %q=%d want %d", trial, step, name, visited[name], loc)
		}
	}
	wantLocs := make([]Location, 0, len(ref))
	for _, l := range ref {
		wantLocs = append(wantLocs, l)
	}
	gotLocs := e.Locations()
	sort.Slice(wantLocs, func(i, j int) bool { return wantLocs[i] < wantLocs[j] })
	sort.Slice(gotLocs, func(i, j int) bool { return gotLocs[i] < gotLocs[j] })
	if len(gotLocs) != len(wantLocs) {
		t.Errorf("trial %d step %d: Locations len=%d want %d", trial, step, len(gotLocs), len(wantLocs))
		return
	}
	for i := range gotLocs {
		if gotLocs[i] != wantLocs[i] {
			t.Errorf("trial %d step %d: Locations[%d]=%d want %d", trial, step, i, gotLocs[i], wantLocs[i])
			return
		}
	}
}

// TestSymbolInternBasics pins the intern table's contract: stability,
// round-tripping, and the invalid zero symbol.
func TestSymbolInternBasics(t *testing.T) {
	a1 := Intern("intern-basics-a")
	a2 := Intern("intern-basics-a")
	b := Intern("intern-basics-b")
	if a1 == 0 || b == 0 {
		t.Fatal("Intern returned the invalid zero symbol")
	}
	if a1 != a2 {
		t.Errorf("Intern not stable: %d vs %d", a1, a2)
	}
	if a1 == b {
		t.Errorf("distinct spellings share symbol %d", a1)
	}
	if SymbolName(a1) != "intern-basics-a" {
		t.Errorf("SymbolName round-trip: got %q", SymbolName(a1))
	}
	if got := SymbolName(0); got != "" {
		t.Errorf("SymbolName(0) = %q, want the empty invalid spelling", got)
	}
}

// TestInternConcurrent interns overlapping spellings from several
// goroutines: each spelling must get exactly one Symbol, and every Symbol
// must round-trip to its spelling.
func TestInternConcurrent(t *testing.T) {
	const workers, spellings = 4, 500
	got := make([][]Symbol, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]Symbol, spellings)
			for i := range out {
				// Each worker walks the spellings from a different start.
				j := (i + w*spellings/workers) % spellings
				out[j] = Intern(fmt.Sprintf("intern-concurrent-%d", j))
			}
			got[w] = out
		}(w)
	}
	wg.Wait()
	for i := 0; i < spellings; i++ {
		want := fmt.Sprintf("intern-concurrent-%d", i)
		for w := range got {
			if got[w][i] != got[0][i] {
				t.Fatalf("%q interned as %d and %d", want, got[0][i], got[w][i])
			}
		}
		if name := SymbolName(got[0][i]); name != want {
			t.Fatalf("SymbolName(%d) = %q, want %q", got[0][i], name, want)
		}
	}
}
