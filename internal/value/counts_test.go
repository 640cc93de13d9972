package value

import (
	"testing"

	"tailspace/internal/env"
)

// TestReclaimFreesCyclesNoDecrementFound pins two garbage cycles whose last
// reference from outside goes without a decrement that leaves a count
// positive, so only the candidate rule's other two arms can find them: a
// knot whose cycle a later ordinary write closes (the knot's own count only
// rises after its write), and a cell whose count fell to zero before an
// ordinary write put it back on a cycle. Each scenario runs on the arena,
// which counts, and on the map store, which traces; both must free the
// cycle's two cells.
func TestReclaimFreesCyclesNoDecrementFound(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(s *Store) int
	}{
		{"knot-closed-by-later-write", func(s *Store) int {
			s.Reclaim(nil, env.Empty(), nil) // the arena builds its account
			a, b := s.Alloc(Bool(false)), s.Alloc(Bool(false))
			s.Set(a, Pair{CarLoc: b, CdrLoc: b}) // a knot: b is younger than a
			s.Set(b, Pair{CarLoc: a, CdrLoc: a}) // closes the cycle, raising a
			return s.Reclaim(nil, env.Empty(), nil)
		}},
		{"count-fell-to-zero-then-revived", func(s *Store) int {
			a, b := s.Alloc(Bool(false)), s.Alloc(Bool(false))
			s.Set(a, Pair{CarLoc: b, CdrLoc: b})
			c := s.Alloc(Vector{ElemLocs: []env.Location{a}})
			root := Vector{ElemLocs: []env.Location{c}}
			s.Reclaim(root, env.Empty(), nil)    // a is counted once, from c
			s.Set(c, Bool(true))                 // a falls to zero
			s.Set(b, Pair{CarLoc: a, CdrLoc: a}) // and is back on a cycle
			return s.Reclaim(root, env.Empty(), nil)
		}},
	}
	for _, sc := range scenarios {
		arena, ref := sc.run(NewStore()), sc.run(NewMapStore())
		if arena != 2 || ref != 2 {
			t.Errorf("%s: Reclaim freed %d cells on the arena and %d on the map store, want 2", sc.name, arena, ref)
		}
	}
}
