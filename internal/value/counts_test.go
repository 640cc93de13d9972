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

// tallyFrame is a continuation frame that counts how often it is read: the
// collector reads a frame's Parts when it counts what the frame holds, and
// walks κ through Next.
type tallyFrame struct {
	K            Cont
	Val          Value
	parts, nexts *int
	frameHandles
}

func (f *tallyFrame) Next() Cont              { *f.nexts++; return f.K }
func (f *tallyFrame) WithNext(next Cont) Cont { c := *f; c.K = next; return &c }
func (f *tallyFrame) Parts() Parts            { *f.parts++; return Parts{Val: f.Val} }

// TestReclaimDeepChainIsAmortized pushes a 10^4-frame chain one frame per
// transition and pops it back to halt, applying the GC rule every 7
// transitions, as TestDeltaMeterDeepChainIsAmortized does for the meter.
// Each frame holds a cell of its own, and a ring cell held by the value
// register keeps a knot live, so a frame count that falls off κ's top would
// send a collection to the tracer. The collector counts κ's frames, so each
// frame is read about once on the way up and once on the way down, however
// many frames move between two collections; a collector that held κ by
// position and re-counted it on every jump would read the chain once per
// collection. The second chain stores an escape of each new frame in a cell
// nothing refers to, which dies at the next collection, as a recursion
// that captures call/cc at every level does: the escape adds a count to
// frames the collector already counts, and its death lowers one near κ's
// top, which is live.
func TestReclaimDeepChainIsAmortized(t *testing.T) {
	const frames, every = 10_000, 7
	for _, escapes := range []bool{false, true} {
		var parts, nexts int
		s := NewStore()
		ring := s.Alloc(Bool(false))
		s.Set(ring, Pair{CarLoc: ring, CdrLoc: ring})
		root := Vector{ElemLocs: []env.Location{ring}}
		var k Cont = Halt{}
		s.Reclaim(root, env.Empty(), k)
		steps := 0
		step := func(next Cont) {
			k = next
			if steps++; steps%every == 0 {
				s.Reclaim(root, env.Empty(), k)
			}
		}
		for range frames {
			held := s.Alloc(Bool(true))
			f := &tallyFrame{K: k, Val: Pair{CarLoc: held, CdrLoc: held}, parts: &parts, nexts: &nexts}
			step(f)
			if escapes {
				s.Alloc(Escape{Tag: s.Alloc(Unspecified{}), K: f})
			}
		}
		s.Reclaim(root, env.Empty(), k)
		if got := s.Size(); got != frames+1 {
			t.Errorf("escapes %t: %d live cells at the top, want the %d the frames hold and the ring", escapes, got, frames)
		}
		for k.Next() != nil {
			step(k.Next())
		}
		s.Reclaim(root, env.Empty(), k)
		if got := s.Size(); got != 1 {
			t.Errorf("escapes %t: %d live cells back at halt, want the ring alone", escapes, got)
		}
		if parts > 3*frames || nexts > 12*frames {
			t.Errorf("escapes %t: the collector read %d frames' Parts and walked %d Next links for %d frames, want at most %d and %d",
				escapes, parts, nexts, frames, 3*frames, 12*frames)
		}
		if st := s.CollectStats(); st.Fallbacks != 0 {
			t.Errorf("escapes %t: %d collections fell back to tracing, want 0", escapes, st.Fallbacks)
		}
		t.Logf("escapes %t: %d Parts reads and %d Next walks for %d frames", escapes, parts, nexts, frames)
	}
}
