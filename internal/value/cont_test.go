package value

import (
	"math/rand"
	"testing"
)

// TestMovedReportsHowKappaMoved drives a continuation through random
// pushes, pops, top replacements, several pushes at once and jumps (two or
// more pops at once, a return to a continuation seen earlier, a fresh
// chain), as transitions, escapes and MTA compression move κ between two
// looks, and checks Moved's answer after every move. A transition's move
// must be found exactly. Whatever the move, below its fresh frames k must
// be last, or last.Next() when popped, and none of the fresh frames may be
// either; on a jump k must pass through neither and fresh must count all of
// k. A depth carried through the answers, as the runner carries it, must
// stay Depth(k).
func TestMovedReportsHowKappaMoved(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		frame := func(k Cont) Cont {
			switch r.Intn(4) {
			case 0:
				return &Return{K: k}
			case 1:
				return &Push{K: k}
			case 2:
				return &Call{K: k}
			default:
				return &Select{K: k}
			}
		}
		pushes := func(k Cont, n int) Cont {
			for range n {
				k = frame(k)
			}
			return k
		}
		var last Cont
		var k Cont = Halt{}
		seen := []Cont{k}
		depth, jumps := 0, 0
		for step := 0; step < 5000; step++ {
			// A transition's move is known: exact is set and want is its
			// answer. A jump may still rejoin last or last.Next().
			wantFresh, wantPopped, exact := 0, false, true
			switch op := r.Intn(14); {
			case step == 0:
				// The first look: k sits on the empty continuation.
				wantFresh = 1
			case op < 1:
			case op < 5 || k.Next() == nil:
				k, wantFresh = frame(k), 1
			case op < 7:
				k, wantPopped = k.Next(), true
			case op < 9:
				k, wantFresh, wantPopped = frame(k.Next()), 1, true
			case op < 11:
				n := 2 + r.Intn(3)
				k, wantFresh = pushes(k, n), n
			case op < 12:
				for range 2 + r.Intn(2) {
					if k.Next() != nil {
						k = k.Next()
					}
				}
				exact = false
			case op < 13:
				k, exact = pushes(seen[r.Intn(len(seen))], r.Intn(3)), false
			default:
				k, exact = pushes(Halt{}, r.Intn(4)), false
			}
			seen = append(seen, k)

			fresh, popped, ok := Moved(last, k)
			if exact && (fresh != wantFresh || popped != wantPopped || !ok) {
				t.Fatalf("seed %d step %d: Moved = (%d, %v, %v), want (%d, %v, true)", seed, step, fresh, popped, ok, wantFresh, wantPopped)
			}
			var lastNext Cont
			if last != nil {
				lastNext = last.Next()
			}
			below := k
			for range fresh {
				if below == last || below == lastNext {
					t.Fatalf("seed %d step %d: a frame counted fresh is last or below it", seed, step)
				}
				below = below.Next()
			}
			switch {
			case !ok:
				for f := k; ; f = f.Next() {
					if f == last || f == lastNext {
						t.Fatalf("seed %d step %d: a jump passes through last or below it", seed, step)
					}
					if f == nil {
						break
					}
				}
				if fresh != Depth(k) {
					t.Fatalf("seed %d step %d: a jump counts %d fresh frames, k has %d", seed, step, fresh, Depth(k))
				}
				depth = 0
				jumps++
			case popped:
				if last == nil || below != lastNext {
					t.Fatalf("seed %d step %d: below the fresh frames is not last.Next()", seed, step)
				}
				depth--
			default:
				if below != last {
					t.Fatalf("seed %d step %d: below the fresh frames is not last", seed, step)
				}
			}
			depth += fresh
			if depth != Depth(k) {
				t.Fatalf("seed %d step %d: carried depth %d, Depth %d", seed, step, depth, Depth(k))
			}
			last = k
		}
		if jumps == 0 {
			t.Errorf("seed %d: no move was a jump", seed)
		}
	}
}
