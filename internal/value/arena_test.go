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
// sequence through two arenas and the map reference and requires identical
// observations after every operation: Get on every location ever allocated,
// Size, sorted Locations, Set/Delete results, collection counts from shared
// root sets, and OccursIn against a brute-force oracle. One arena collects
// with Reclaim (reference counts), the other with Collect (its tracer), and
// the map store traces. Writes store pairs, vectors, closures and escapes
// that point at any cell, older or younger, so they build cycles; rings of
// fresh cells are closed and dropped at once, and a fresh cell whose count
// fell to zero is put back on a cycle by an ordinary write between two
// collections. Collections root through the value register, through ρ
// (shadow-free and shadowed chains) and through κ (frames holding values
// and environments, moved by pushes, pops and replacements as transitions
// move it).
func TestArenaMatchesMapStoreOnRandomOps(t *testing.T) {
	var total CollectStats
	for seed := int64(1); seed <= 8; seed++ {
		st := randomOps(t, seed, 1500)
		total.Trials += st.Trials
		total.Fallbacks += st.Fallbacks
	}
	if total.Trials == 0 || total.Fallbacks == 0 {
		t.Errorf("trial deletion ran in %d collections and fell back in %d; want both", total.Trials, total.Fallbacks)
	}
}

// randomOps runs one seed's operation sequence and returns the counting
// arena's collection counts.
func randomOps(t *testing.T, seed int64, steps int) CollectStats {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	counted, traced, ref := NewStore(), NewStore(), NewMapStore()
	// arenas are checked against ref, with their names for the messages.
	arenas := []struct {
		name string
		s    *Store
	}{{"counted", counted}, {"traced", traced}}
	var ever []env.Location
	names := env.InternAll([]string{"a", "b", "c"})
	// pick draws a cell live at the start of the step three times in four,
	// and otherwise any cell ever allocated, so some references dangle.
	// Most cells die young, so uniform picks would mostly write to and
	// point at dead cells.
	var live []env.Location
	pick := func() env.Location {
		if len(live) > 0 && rng.Intn(4) > 0 {
			return live[rng.Intn(len(live))]
		}
		return ever[rng.Intn(len(ever))]
	}
	// alloc allocates v in every store.
	alloc := func(step int, v Value) env.Location {
		lr := ref.Alloc(v)
		for _, a := range arenas {
			if la := a.s.Alloc(v); la != lr {
				t.Fatalf("seed %d step %d: Alloc %s=%d map=%d", seed, step, a.name, la, lr)
			}
		}
		ever = append(ever, lr)
		return lr
	}
	// set writes v to l in every store.
	set := func(step int, l env.Location, v Value) {
		rok := ref.Set(l, v)
		for _, a := range arenas {
			if aok := a.s.Set(l, v); aok != rok {
				t.Fatalf("seed %d step %d: Set(%d) %s=%v map=%v", seed, step, l, a.name, aok, rok)
			}
		}
	}
	// environment builds a chain of one to three ribs over existing cells;
	// names repeat across ribs, so some chains are shadowed.
	environment := func() env.Env {
		e := env.Empty()
		for range 1 + rng.Intn(3) {
			n := 1 + rng.Intn(2)
			locs := make([]env.Location, n)
			for i := range locs {
				locs[i] = pick()
			}
			e = e.ExtendSyms(names[rng.Intn(2):][:n], locs)
		}
		return e
	}
	var kappa Cont = Halt{}
	// value draws a value over existing cells; a closure or an escape gets
	// a fresh tag, allocated after what it holds, as the machine does.
	value := func(step int) Value {
		switch rng.Intn(6) {
		case 0:
			return Num{Int: bigInt(int64(step))}
		case 1:
			return Pair{CarLoc: pick(), CdrLoc: pick()}
		case 2:
			return Vector{ElemLocs: []env.Location{pick(), pick(), pick()}}
		case 3:
			e := environment()
			return Closure{Tag: alloc(step, Unspecified{}), Env: e}
		case 4:
			return Escape{Tag: alloc(step, Unspecified{}), K: kappa}
		}
		return Bool(step%2 == 0)
	}
	// collect applies the GC rule to (val, rho, κ) in every store.
	collect := func(step int, val Value, rho env.Env) {
		cr := ref.Reclaim(val, rho, kappa)
		if cc := counted.Reclaim(val, rho, kappa); cc != cr {
			t.Fatalf("seed %d step %d: Reclaim counted=%d map=%d", seed, step, cc, cr)
		}
		if ct := traced.Collect(val, rho, kappa); ct != cr {
			t.Fatalf("seed %d step %d: Collect traced=%d map=%d", seed, step, ct, cr)
		}
	}
	check := func(step int) {
		t.Helper()
		rl := ref.Locations()
		for _, a := range arenas {
			if a.s.Size() != ref.Size() {
				t.Fatalf("seed %d step %d: Size %s=%d map=%d", seed, step, a.name, a.s.Size(), ref.Size())
			}
			for _, l := range ever {
				av, aok := a.s.Get(l)
				rv, rok := ref.Get(l)
				if aok != rok {
					t.Fatalf("seed %d step %d: Get(%d) %s ok=%v map ok=%v", seed, step, l, a.name, aok, rok)
				}
				if aok && !sameValue(av, rv) {
					t.Fatalf("seed %d step %d: Get(%d) %s=%v map=%v", seed, step, l, a.name, av, rv)
				}
			}
			al := a.s.Locations()
			if !sort.SliceIsSorted(al, func(i, j int) bool { return al[i] < al[j] }) {
				t.Fatalf("seed %d step %d: %s Locations not ascending: %v", seed, step, a.name, al)
			}
			if !slices.Equal(al, rl) {
				t.Fatalf("seed %d step %d: Locations %s=%v map=%v", seed, step, a.name, al, rl)
			}
		}
	}
	for step := 0; step < steps; step++ {
		live = ref.Locations()
		if len(ever) < 3 {
			alloc(step, Num{Int: bigInt(int64(step))})
			continue
		}
		switch op := rng.Intn(22); {
		case op < 6: // alloc a value over older cells
			alloc(step, value(step))
		case op < 10: // set a cell to a value over any cell
			set(step, pick(), value(step))
		case op < 11:
			// A ring of two or three fresh cells that nothing else refers
			// to, closed by writes in random order: whether a knot's write
			// or an ordinary one closes it, nothing on the ring is
			// decremented before the next collection.
			ring := make([]env.Location, 2+rng.Intn(2))
			for i := range ring {
				ring[i] = alloc(step, Unspecified{})
			}
			for _, i := range rng.Perm(len(ring)) {
				next := ring[(i+1)%len(ring)]
				set(step, ring[i], Pair{CarLoc: next, CdrLoc: next})
			}
		case op < 12:
			// TestReclaimFreesCyclesNoDecrementFound's count-fell-to-zero
			// scenario over fresh cells: a's one reference, from the holder
			// c, goes, and an ordinary write puts a back on a cycle through
			// b. Nothing on the cycle is decremented again, and the next
			// collection's registers, rho among them, do not reach it.
			rho := environment()
			a, b := alloc(step, Bool(false)), alloc(step, Bool(false))
			set(step, a, Pair{CarLoc: b, CdrLoc: b})
			c := alloc(step, Vector{ElemLocs: []env.Location{a}})
			collect(step, Vector{ElemLocs: []env.Location{c}}, rho)
			set(step, c, Bool(true))
			set(step, b, Pair{CarLoc: a, CdrLoc: a})
			collect(step, nil, rho)
		case op < 13: // delete
			l := pick()
			ref.Delete(l)
			for _, a := range arenas {
				a.s.Delete(l)
			}
		case op < 16: // move κ as a transition does
			switch rng.Intn(3) {
			case 0:
				kappa = NewPush(nil, []int{0, 1}, []Value{value(step)}, environment(), kappa)
			case 1:
				if kappa.Next() != nil {
					kappa = kappa.Next()
				}
			default:
				kappa = &Select{Env: environment(), K: kappa}
			}
		case op < 21: // collect from the registers
			var val Value
			if rng.Intn(2) == 0 {
				val = Vector{ElemLocs: []env.Location{pick()}}
			}
			rho := env.Empty()
			if rng.Intn(3) > 0 {
				rho = environment()
			}
			collect(step, val, rho)
		default: // occurs-check over a random candidate set
			var cands []env.Location
			for _, l := range ever {
				if rng.Intn(4) == 0 {
					cands = append(cands, l)
				}
			}
			want := occursOracle(ref, cands)
			hc, ht, hr := counted.OccursIn(cands), traced.OccursIn(cands), ref.OccursIn(cands)
			for i, c := range cands {
				if hc[i] != want[i] || ht[i] != want[i] || hr[i] != want[i] {
					t.Fatalf("seed %d step %d: OccursIn(%d) counted=%v traced=%v map=%v want %v", seed, step, c, hc[i], ht[i], hr[i], want[i])
				}
			}
		}
		check(step)
	}
	counted.Release()
	return counted.CollectStats()
}

// sameValue compares two stored values, vectors by their elements.
func sameValue(a, b Value) bool {
	if va, ok := a.(Vector); ok {
		vb, ok := b.(Vector)
		return ok && slices.Equal(va.ElemLocs, vb.ElemLocs)
	}
	return a == b
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
