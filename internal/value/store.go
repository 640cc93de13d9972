package value

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"tailspace/internal/env"
)

// StoreObserver receives a notification for every mutation of a store: one
// call per allocation, write, and deletion (garbage collection reports each
// collected location as a deletion). Meters use these hooks to maintain
// incremental space accounts in O(cells touched) per transition instead of
// re-walking the whole store; the observability layer uses the same hooks to
// attribute allocations to the expression being evaluated. Values are
// structurally immutable once stored (mutation replaces the slot), so a
// price computed at notification time never goes stale.
type StoreObserver interface {
	// StoreAlloc reports that a fresh location l was bound to v.
	StoreAlloc(l env.Location, v Value)
	// StoreSet reports that σ(l) was replaced: old is the previous value.
	StoreSet(l env.Location, old, v Value)
	// StoreDelete reports that l was removed while holding v (explicit
	// deletion or garbage collection).
	StoreDelete(l env.Location, v Value)
}

// Store is the σ of Figure 4: a finite map from locations to values. It also
// carries the deterministic random source used by the `random` primitive
// (Theorem 26's program calls it) so whole runs are reproducible.
//
// Two representations share this one type. The default is a dense slice
// arena: locations are indices into vals, a live/slot pair maintains Dom σ as
// a dense set with O(1) membership and swap-remove deletion. Reclaim, the
// runner's GC rule, works from reference counts (counts.go); Collect, the
// tracing oracle, marks with a reusable epoch array so a collection
// allocates nothing.
// Locations are never reused after deletion — the Z_stack strategy's
// dangling-pointer detection depends on a deleted α staying dead forever —
// so vals grows monotonically with Allocs; that memory-for-speed trade is
// deliberate. NewMapStore instead builds the original map-backed reference
// implementation (m != nil selects it in every method), kept so differential
// tests can pin the arena against it observation-for-observation.
type Store struct {
	// Arena representation (m == nil).
	vals []Value        // vals[α]; nil after deletion
	live []env.Location // Dom σ, dense and unordered
	slot []int32        // slot[α] = index of α in live, or -1 when dead
	// Epoch-mark tracing state, reused across traces. The cell marks count
	// their own per-store epoch; environment ribs carry the stamps of the
	// process-wide env.Epoch instead.
	marks   []uint32
	epoch   uint32
	gcStack []env.Location
	occBuf  []env.Location
	// acct is the reference-count account behind Reclaim, built by its
	// first call (see counts.go); nil until then and on the map store.
	acct  *countAccount
	stats CollectStats

	// Reference representation (selected when m != nil).
	m map[env.Location]Value

	next env.Location

	// Allocs counts every allocation ever performed; it is monotone and
	// unaffected by garbage collection.
	Allocs int
	// rng is the random source Rand returns, built from seed on first use:
	// seeding costs more than the rest of a small run's set-up, and most
	// runs never draw.
	seed int64
	rng  *rand.Rand

	observers []StoreObserver
}

// defaultSeed seeds every store's random source until Seed replaces it.
const defaultSeed = 0x5ce4e5

// NewStore returns an empty arena-backed store with a fixed-seed random
// source.
func NewStore() *Store {
	return &Store{seed: defaultSeed}
}

// NewMapStore returns an empty store using the map-backed reference
// representation. Both representations allocate the same sequence of
// locations and share the fixed random seed, so a program run against either
// produces identical answers; differential tests rely on exactly that.
func NewMapStore() *Store {
	return &Store{m: make(map[env.Location]Value), seed: defaultSeed}
}

// Rand returns the store's random source, which the `random` primitive and
// the RandomOrder policy draw from.
func (s *Store) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	return s.rng
}

// Seed restarts the random source from seed: the draws that follow are
// those of a fresh source with that seed.
func (s *Store) Seed(seed int64) {
	s.seed, s.rng = seed, nil
}

// IsMapBacked reports whether s uses the reference map representation.
func (s *Store) IsMapBacked() bool { return s.m != nil }

// AddObserver registers o for mutation notifications. Adding the same
// observer twice is a no-op (a meter re-attached to the store it is already
// watching must not double-count).
func (s *Store) AddObserver(o StoreObserver) {
	for _, have := range s.observers {
		if have == o {
			return
		}
	}
	s.observers = append(s.observers, o)
}

// RemoveObserver unregisters o. The vacated tail slot is nilled so the
// backing array does not retain the removed observer (or any meter state it
// captured).
func (s *Store) RemoveObserver(o StoreObserver) {
	for i, have := range s.observers {
		if have == o {
			last := len(s.observers) - 1
			copy(s.observers[i:], s.observers[i+1:])
			s.observers[last] = nil
			s.observers = s.observers[:last]
			return
		}
	}
}

// Alloc binds a fresh location to v and returns it.
func (s *Store) Alloc(v Value) env.Location {
	l := s.next
	s.next++
	if s.m != nil {
		s.m[l] = v
	} else {
		s.vals = append(s.vals, v)
		s.slot = append(s.slot, int32(len(s.live)))
		s.live = append(s.live, l)
	}
	s.Allocs++
	for _, o := range s.observers {
		o.StoreAlloc(l, v)
	}
	if s.acct != nil {
		s.acct.alloc(l, v)
	}
	return l
}

// AllocN allocates n fresh locations initialized to the given values. The
// arena grows at most once for all of them, to a power of two, so a store
// that starts with AllocN (σ0) goes on doubling as one grown a cell at a
// time from empty does, without the reallocations on the way.
func (s *Store) AllocN(vs []Value) []env.Location {
	if n := len(s.vals) + len(vs); s.m == nil && n > cap(s.vals) {
		c := 1 << bits.Len(uint(n-1))
		s.vals = slices.Grow(s.vals, c-len(s.vals))
		s.slot = slices.Grow(s.slot, c-len(s.slot))
		s.live = slices.Grow(s.live, c-len(s.live))
	}
	out := make([]env.Location, len(vs))
	for i, v := range vs {
		out[i] = s.Alloc(v)
	}
	return out
}

// Get returns σ(α) and reports whether α ∈ Dom σ.
func (s *Store) Get(l env.Location) (Value, bool) {
	if s.m != nil {
		v, ok := s.m[l]
		return v, ok
	}
	if l < 0 || int(l) >= len(s.slot) || s.slot[l] < 0 {
		return nil, false
	}
	return s.vals[l], true
}

// Set updates σ(α); α must already be allocated.
func (s *Store) Set(l env.Location, v Value) bool {
	var old Value
	if s.m != nil {
		var ok bool
		old, ok = s.m[l]
		if !ok {
			return false
		}
		s.m[l] = v
	} else {
		if l < 0 || int(l) >= len(s.slot) || s.slot[l] < 0 {
			return false
		}
		old = s.vals[l]
		s.vals[l] = v
	}
	for _, o := range s.observers {
		o.StoreSet(l, old, v)
	}
	if s.acct != nil {
		s.acct.set(l, old, v)
	}
	return true
}

// Delete removes α from the store (the Z_stack deletion strategy). Deleting
// an absent location is a no-op. The location is never reused.
func (s *Store) Delete(l env.Location) {
	if s.m != nil {
		v, ok := s.m[l]
		if !ok {
			return
		}
		delete(s.m, l)
		for _, o := range s.observers {
			o.StoreDelete(l, v)
		}
		return
	}
	if l < 0 || int(l) >= len(s.slot) || s.slot[l] < 0 {
		return
	}
	s.free(l)
}

// remove drops a live α from the arena's dense set (swap-remove) and releases
// its value.
func (s *Store) remove(l env.Location) {
	i := s.slot[l]
	last := len(s.live) - 1
	moved := s.live[last]
	s.live[i] = moved
	s.slot[moved] = i
	s.live = s.live[:last]
	s.slot[l] = -1
	s.vals[l] = nil
}

// Size is |Dom σ|, the number of live locations.
func (s *Store) Size() int {
	if s.m != nil {
		return len(s.m)
	}
	return len(s.live)
}

// Each calls f for every live (location, value) pair (iteration order
// unspecified).
func (s *Store) Each(f func(l env.Location, v Value)) {
	if s.m != nil {
		for l, v := range s.m {
			f(l, v)
		}
		return
	}
	for _, l := range s.live {
		f(l, s.vals[l])
	}
}

// Locations returns Dom σ in ascending order.
func (s *Store) Locations() []env.Location {
	out := make([]env.Location, 0, s.Size())
	if s.m != nil {
		for l := range s.m {
			out = append(out, l)
		}
	} else {
		out = append(out, s.live...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ribEpoch returns the epoch one traversal enumerates environments under: a
// fresh one on the arena, so a rib delivered once is not walked again, and
// Unstamped on the map reference, which enumerates every environment in
// full. The differential suites therefore compare stamped tracing against
// plain tracing.
func (s *Store) ribEpoch() env.Epoch {
	if s.m != nil {
		return env.Unstamped
	}
	return env.NewEpoch()
}

// configLocations appends the roots of the configuration (v, ρ, κ) — the
// locations mentioned by the value register, the environment register and
// the continuation — to out, enumerating environments under ep.
func configLocations(v Value, rho env.Env, k Cont, ep env.Epoch, out []env.Location) []env.Location {
	out = Locations(v, ep, out)
	out = rho.AppendLocations(ep, out)
	return ContLocations(k, ep, out)
}

// beginEpoch prepares the reusable mark array for a fresh traversal: bump the
// epoch (a slot is marked iff marks[α] == epoch) and grow marks to cover
// every location ever allocated. Growth goes through append so its
// reallocation is amortized; a wrapped epoch counter clears the array once
// every 2³²−1 traversals.
func (s *Store) beginEpoch() {
	for len(s.marks) < len(s.vals) {
		s.marks = append(s.marks, 0)
	}
	s.epoch++
	if s.epoch == 0 {
		for i := range s.marks {
			s.marks[i] = 0
		}
		s.epoch = 1
	}
}

// markReachable traces the reachability relation of Figure 5's collection
// rule from the locations on stack, setting marks[α] == epoch for every
// location encountered (dangling references included, matching the map
// reference's seen set), and returns the number of live cells it marked.
// Closure environments are enumerated under ep, the epoch the roots were
// built under, so a rib delivered as a root or through another closure is
// not walked again. The work stack is kept for the next call, so a
// steady-state traversal allocates nothing.
func (s *Store) markReachable(ep env.Epoch, stack []env.Location) (live int) {
	s.beginEpoch()
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if l < 0 || int(l) >= len(s.marks) || s.marks[l] == s.epoch {
			continue
		}
		s.marks[l] = s.epoch
		if s.slot[l] < 0 {
			continue
		}
		live++
		stack = Locations(s.vals[l], ep, stack)
	}
	s.gcStack = stack[:0]
	return live
}

// reachMap is the map reference's trace: a depth-first search from the
// locations on stack with a seen set.
func (s *Store) reachMap(stack []env.Location) map[env.Location]bool {
	seen := make(map[env.Location]bool, len(stack))
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[l] {
			continue
		}
		seen[l] = true
		v, ok := s.m[l]
		if !ok {
			continue
		}
		stack = Locations(v, env.Unstamped, stack)
	}
	return seen
}

// Reachable computes the set of locations reachable from the configuration
// (v, ρ, κ) through the values in the store — the reachability relation of
// the garbage collection rule in Figure 5. v may be nil (an expression
// configuration) and κ nil (no continuation).
func (s *Store) Reachable(v Value, rho env.Env, k Cont) map[env.Location]bool {
	ep := s.ribEpoch()
	roots := configLocations(v, rho, k, ep, nil)
	if s.m != nil {
		return s.reachMap(roots)
	}
	out := make(map[env.Location]bool, s.markReachable(ep, roots))
	for l := range s.marks {
		if s.marks[l] == s.epoch {
			out[env.Location(l)] = true
		}
	}
	return out
}

// Collect applies the garbage collection rule to the configuration
// (v, ρ, κ, σ) by tracing: every location not reachable from the roots v,
// ρ and κ mention is removed from the store. It returns the number of
// locations collected. It is the oracle Reclaim is checked against. On the
// arena one collection is one epoch, shared by root building and marking,
// so an environment rib delivered once is not walked again; a collection
// that marks every live cell skips the sweep, and one that frees nothing
// performs zero heap allocations.
func (s *Store) Collect(val Value, rho env.Env, k Cont) int {
	if s.m != nil {
		reach := s.Reachable(val, rho, k)
		collected := 0
		for l, v := range s.m {
			if !reach[l] {
				delete(s.m, l)
				for _, o := range s.observers {
					o.StoreDelete(l, v)
				}
				collected++
			}
		}
		return collected
	}
	ep := env.NewEpoch()
	return s.sweep(ep, configLocations(val, rho, k, ep, s.gcStack[:0]))
}

// sweep traces from roots, listed under the epoch ep, and frees every live
// cell the trace did not reach, telling the observers and the count account
// (when Reclaim built one).
func (s *Store) sweep(ep env.Epoch, roots []env.Location) int {
	if s.markReachable(ep, roots) == len(s.live) {
		return 0
	}
	collected := 0
	for i := 0; i < len(s.live); {
		l := s.live[i]
		if s.marks[l] == s.epoch {
			i++
			continue
		}
		s.free(l)
		collected++
	}
	return collected
}

// free removes a live cell: the observers are told, and the count account,
// if Reclaim built one, releases what the cell held.
func (s *Store) free(l env.Location) {
	v := s.drop(l)
	if s.acct != nil {
		s.acct.gone(l, v)
	}
}

// drop removes a live cell, tells the observers, and returns its value.
func (s *Store) drop(l env.Location) Value {
	v := s.vals[l]
	s.remove(l)
	for _, o := range s.observers {
		o.StoreDelete(l, v)
	}
	return v
}

// OccursIn reports which candidates occur within a live cell outside the
// candidate set: held[i] is true when cands[i] does. This is the store half
// of Z_stack's dangling-pointer check. A candidate mentioned only by other
// candidates does not count, since a frame deletes its cells together.
// Membership is a linear search, sized for the few argument cells one frame
// holds. The per-value scratch is reused across calls. One scan is one
// epoch: a rib an earlier cell delivered adds nothing new, and candidate
// cells are skipped before their values are listed, so no rib is stamped on
// their behalf.
func (s *Store) OccursIn(cands []env.Location) (held []bool) {
	held = make([]bool, len(cands))
	ep := s.ribEpoch()
	scratch := s.occBuf[:0]
	s.Each(func(l env.Location, v Value) {
		if slices.Contains(cands, l) {
			return
		}
		scratch = Locations(v, ep, scratch[:0])
		for _, ref := range scratch {
			if i := slices.Index(cands, ref); i >= 0 {
				held[i] = true
			}
		}
	})
	s.occBuf = scratch[:0]
	return held
}
