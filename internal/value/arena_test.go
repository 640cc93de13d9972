package value

import (
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tailspace/internal/env"
)

func bigInt(n int64) *big.Int { return big.NewInt(n) }

type nopObserver struct{ id int }

func (nopObserver) StoreAlloc(env.Location, Value)      {}
func (nopObserver) StoreSet(env.Location, Value, Value) {}
func (nopObserver) StoreDelete(env.Location, Value)     {}

// TestRemoveObserverReleasesSlot pins the fix for the append-shift leak: the
// vacated tail slot of the observer slice must be nilled so the backing array
// does not retain the removed observer.
func TestRemoveObserverReleasesSlot(t *testing.T) {
	s := NewStore()
	a, b, c := nopObserver{1}, nopObserver{2}, nopObserver{3}
	s.AddObserver(a)
	s.AddObserver(b)
	s.AddObserver(c)
	s.RemoveObserver(a)
	if len(s.observers) != 2 {
		t.Fatalf("observers len=%d, want 2", len(s.observers))
	}
	tail := s.observers[:3]
	if tail[2] != nil {
		t.Errorf("vacated tail slot still holds %v; want nil", tail[2])
	}
	if s.observers[0] != StoreObserver(b) || s.observers[1] != StoreObserver(c) {
		t.Errorf("remaining observers wrong: %v", s.observers)
	}
}

// TestArenaNeverReusesLocations pins the semantic requirement behind the
// monotone arena: Z_stack's dangling-pointer detection needs Get on a deleted
// location to report false forever, so fresh allocations must never recycle
// a deleted index.
func TestArenaNeverReusesLocations(t *testing.T) {
	s := NewStore()
	l1 := s.Alloc(Bool(true))
	s.Delete(l1)
	if _, ok := s.Get(l1); ok {
		t.Fatalf("Get(%d) alive after Delete", l1)
	}
	l2 := s.Alloc(Bool(false))
	if l2 == l1 {
		t.Fatalf("deleted location %d was reused", l1)
	}
	if _, ok := s.Get(l1); ok {
		t.Fatalf("Get(%d) came back alive after a later Alloc", l1)
	}
	s.Set(l1, Bool(true))
	if _, ok := s.Get(l1); ok {
		t.Fatalf("Set resurrected deleted location %d", l1)
	}
}

// TestArenaMatchesMapStoreOnRandomOps drives an identical random operation
// sequence through the arena and the map reference and requires identical
// observations after every operation: Get on every location ever allocated,
// Size, sorted Locations, Set/Delete results, Collect counts from shared
// root sets, and OccursIn against a brute-force oracle.
func TestArenaMatchesMapStoreOnRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	arena, ref := NewStore(), NewMapStore()
	var ever []env.Location
	check := func(step int) {
		t.Helper()
		if arena.Size() != ref.Size() {
			t.Fatalf("step %d: Size arena=%d map=%d", step, arena.Size(), ref.Size())
		}
		for _, l := range ever {
			av, aok := arena.Get(l)
			rv, rok := ref.Get(l)
			if aok != rok {
				t.Fatalf("step %d: Get(%d) arena ok=%v map ok=%v", step, l, aok, rok)
			}
			if aok && av != rv {
				t.Fatalf("step %d: Get(%d) arena=%v map=%v", step, l, av, rv)
			}
		}
		al, rl := arena.Locations(), ref.Locations()
		if len(al) != len(rl) {
			t.Fatalf("step %d: Locations len arena=%d map=%d", step, len(al), len(rl))
		}
		if !sort.SliceIsSorted(al, func(i, j int) bool { return al[i] < al[j] }) {
			t.Fatalf("step %d: arena Locations not ascending: %v", step, al)
		}
		for i := range al {
			if al[i] != rl[i] {
				t.Fatalf("step %d: Locations[%d] arena=%d map=%d", step, i, al[i], rl[i])
			}
		}
	}
	for step := 0; step < 600; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // alloc, sometimes a pair chaining to an earlier cell
			var v Value = Num{Int: bigInt(int64(step))}
			if len(ever) >= 2 && rng.Intn(2) == 0 {
				v = Pair{CarLoc: ever[rng.Intn(len(ever))], CdrLoc: ever[rng.Intn(len(ever))]}
			}
			la, lr := arena.Alloc(v), ref.Alloc(v)
			if la != lr {
				t.Fatalf("step %d: Alloc arena=%d map=%d", step, la, lr)
			}
			ever = append(ever, la)
		case 4, 5: // set
			if len(ever) == 0 {
				continue
			}
			l := ever[rng.Intn(len(ever))]
			v := Bool(step%2 == 0)
			if aok, rok := arena.Set(l, v), ref.Set(l, v); aok != rok {
				t.Fatalf("step %d: Set(%d) arena=%v map=%v", step, l, aok, rok)
			}
		case 6, 7: // delete
			if len(ever) == 0 {
				continue
			}
			l := ever[rng.Intn(len(ever))]
			arena.Delete(l)
			ref.Delete(l)
		case 8: // collect from a random subset of roots
			var roots []env.Location
			for _, l := range ever {
				if rng.Intn(3) == 0 {
					roots = append(roots, l)
				}
			}
			root := rootsVal(roots...)
			if ca, cr := arena.Collect(root, env.Empty(), nil), ref.Collect(root, env.Empty(), nil); ca != cr {
				t.Fatalf("step %d: Collect arena=%d map=%d", step, ca, cr)
			}
		case 9: // occurs-check over a random candidate set
			var cands []env.Location
			for _, l := range ever {
				if rng.Intn(4) == 0 {
					cands = append(cands, l)
				}
			}
			want := occursOracle(ref, cands)
			ha, hr := arena.OccursIn(cands), ref.OccursIn(cands)
			for i, c := range cands {
				if ha[i] != want[i] || hr[i] != want[i] {
					t.Fatalf("step %d: OccursIn(%d) arena=%v map=%v want %v", step, c, ha[i], hr[i], want[i])
				}
			}
		}
		check(step)
	}
}

// occursOracle answers OccursIn from Get and Locations alone: cands[i] is
// held when some live cell outside cands mentions it.
func occursOracle(s *Store, cands []env.Location) []bool {
	held := make([]bool, len(cands))
	for _, l := range s.Locations() {
		if slices.Contains(cands, l) {
			continue
		}
		v, _ := s.Get(l)
		for _, ref := range Locations(v, env.Unstamped, nil) {
			for i, c := range cands {
				if c == ref {
					held[i] = true
				}
			}
		}
	}
	return held
}

// TestCollectSteadyStateAllocsFree pins the epoch-mark collector's headline
// property: once its scratch has warmed up, collecting an all-reachable store
// performs zero heap allocations. The roots reach the chain through the value
// register, a shadowed environment and a continuation frame, so both rib
// walks run too.
func TestCollectSteadyStateAllocsFree(t *testing.T) {
	s := NewStore()
	var prev env.Location
	for i := 0; i < 500; i++ {
		v := Value(Num{Int: bigInt(int64(i))})
		if i > 0 {
			v = Pair{CarLoc: prev, CdrLoc: prev}
		}
		prev = s.Alloc(v)
	}
	x := env.InternAll([]string{"x"})
	rho := env.Empty().ExtendSyms(x, []env.Location{prev - 1}).ExtendSyms(x, []env.Location{prev})
	k := &Select{Env: rho, K: Halt{}}
	root := rootsVal(prev)
	s.Collect(root, rho, k) // warm the marks array and work stack
	avg := testing.AllocsPerRun(50, func() {
		if n := s.Collect(root, rho, k); n != 0 {
			t.Fatalf("steady-state collect reclaimed %d", n)
		}
	})
	if avg != 0 {
		t.Errorf("Collect allocates %v objects per run in steady state, want 0", avg)
	}
}
