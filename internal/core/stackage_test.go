package core

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tailspace/internal/corpus"
	"tailspace/internal/env"
	"tailspace/internal/expand"
	"tailspace/internal/prim"
	"tailspace/internal/value"
)

// TestStackReturnAgeInvariant pins the argument stackReturn rests on when it
// skips the older continuation: at every Z_stack return, no location of the
// frame's deletion set A occurs in k.K. A is allocated just before the frame
// is pushed, and k.K is older, so a hit means some frame mentions a location
// younger than itself. The test steps the bare machine (no collector, no
// meter) over the corpus and the call/cc examples, under both argument
// orders, in safe and strict mode, and walks k.K with ContLocations, which
// the machine skips. That walk is O(depth) per return, so on deep-list,
// whose depth reaches 1,000, only every 50th return is checked.
func TestStackReturnAgeInvariant(t *testing.T) {
	type program struct{ name, src string }
	var programs []program
	for _, p := range corpus.All() {
		programs = append(programs, program{p.Name, p.Source})
	}
	for _, name := range []string{"callcc-reentry.scm", "stored-thunk.scm"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", name))
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, program{name, string(src)})
	}
	for _, p := range programs {
		every := 1
		if p.name == "deep-list" {
			every = 50
		}
		t.Run(p.name, func(t *testing.T) {
			for _, order := range []ArgOrder{LeftToRight, RightToLeft} {
				for _, strict := range []bool{false, true} {
					checked := checkStackAges(t, p.src, order, strict, every)
					if checked == 0 && !strict {
						t.Errorf("order=%d: no Z_stack return was checked", order)
					}
				}
			}
		})
	}
}

// checkStackAges runs src on a bare Z_stack machine and checks the age
// invariant at every every-th return-stack transition. It returns the
// number of returns checked. Safe mode must reach an answer; strict mode may
// stop only on a dangling deletion.
func checkStackAges(t *testing.T, src string, order ArgOrder, strict bool, every int) int {
	t.Helper()
	e, err := expand.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	rho0, st := prim.Global()
	m := NewMachine(Stack, st)
	m.SetOrder(order)
	m.SetStackStrict(strict)
	s := EvalState(e, rho0, value.Halt{})
	returns, checked := 0, 0
	var buf []env.Location
	for step := 0; step < 2_000_000; step++ {
		if k, ok := s.K.(*value.ReturnStack); ok && s.Expr == nil {
			returns++
			if returns%every == 0 {
				checked++
				buf = value.ContLocations(k.K, env.Unstamped, buf[:0])
				for _, l := range buf {
					if slices.Contains(k.Del, l) {
						t.Fatalf("order=%d strict=%v step %d: location %d of A = %v occurs in the older continuation",
							order, strict, step, l, k.Del)
					}
				}
			}
		}
		next, done, err := m.Step(s)
		if err != nil {
			if stuck, ok := err.(*StuckError); strict && ok && stuck.IsDangling() {
				return checked
			}
			t.Fatalf("order=%d strict=%v: %v", order, strict, err)
		}
		if done {
			return checked
		}
		s = next
	}
	t.Fatalf("order=%d strict=%v: no answer within 2,000,000 steps", order, strict)
	return checked
}
