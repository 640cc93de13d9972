package space_test

import (
	"errors"
	"testing"

	"tailspace/internal/core"
	"tailspace/internal/env"
	"tailspace/internal/space"
	"tailspace/internal/value"
)

// sizeMeter is a DeltaMeter that samples its Figure 8 account after every
// Linked call.
type sizeMeter struct {
	*space.DeltaMeter
	sizes [][3]int // per observation: ribs, frames, pairs
}

func (m *sizeMeter) Linked(val value.Value, rho env.Env, k value.Cont, st *value.Store) int {
	n := m.DeltaMeter.Linked(val, rho, k, st)
	r, f, p := m.LinkedAccountSize()
	m.sizes = append(m.sizes, [3]int{r, f, p})
	return n
}

// maxOver is the component-wise maximum of sizes[from:to].
func maxOver(sizes [][3]int, from, to int) [3]int {
	var out [3]int
	for _, s := range sizes[from:to] {
		for i := range s {
			out[i] = max(out[i], s[i])
		}
	}
	return out
}

func measureSizes(t *testing.T, src string, v core.Variant, maxSteps, gcEvery int) (*sizeMeter, core.Result) {
	t.Helper()
	m := &sizeMeter{DeltaMeter: space.NewDeltaMeter(space.Log)}
	res, err := core.RunProgram(src, core.Options{
		Variant: v, Measure: true, GCEvery: gcEvery, MaxSteps: maxSteps,
		CostModel: space.Log, Meter: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// TestLinkedAccountStaysBoundedOnTailLoop runs a constant-space tail loop
// for 200,000 transitions: the account's ribs, frames and binding pairs
// must stay at what the loop's first iterations needed. Every iteration
// binds a fresh rib and closes over it, so a reference the account failed
// to release would grow it. The account has no
// size cap (unlike the Figure 7 continuation memo); it stays small only
// because released references leave it.
func TestLinkedAccountStaysBoundedOnTailLoop(t *testing.T) {
	const steps = 200_000
	const src = `
(define (mk n) (lambda () n))
(define (loop n k) (if (zero? n) (k) (loop (- n 1) (mk n))))
(loop 1000000 (mk 0))`
	for _, v := range []core.Variant{core.Tail, core.SFS, core.MTA} {
		m, res := measureSizes(t, src, v, steps, 1)
		if !errors.Is(res.Err, core.ErrMaxSteps) || len(m.sizes) != steps+1 {
			t.Fatalf("%s: want a %d-step run cut by MaxSteps, got %d observations, err %v", v, steps, len(m.sizes), res.Err)
		}
		early, late := maxOver(m.sizes, 1_000, 2_000), maxOver(m.sizes, steps-10_000, steps+1)
		for i, what := range []string{"ribs", "frames", "pairs"} {
			if late[i] > early[i] {
				t.Errorf("%s: %s grew from %d (steps 1000-2000) to %d (last 10000 steps)", v, what, early[i], late[i])
			}
		}
		if late[0] == 0 || late[1] == 0 || late[2] == 0 {
			t.Errorf("%s: account looks empty: %v", v, late)
		}
	}
}

// TestLinkedAccountShrinksAfterRecursion recurses 500 deep, returns, and
// then loops: the account must hold every frame and argument binding of the
// recursion at its peak and give them all back once it returns. The
// collector runs every 100 steps: its root walk is O(depth) per collection.
func TestLinkedAccountShrinksAfterRecursion(t *testing.T) {
	const depth = 500
	const src = `
(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1)))))
(define (loop n) (if (zero? n) 0 (loop (- n 1))))
(+ (* 0 (sum 500)) (loop 200))`
	for _, v := range []core.Variant{core.Tail, core.GC, core.Stack} {
		m, res := measureSizes(t, src, v, 0, 100)
		if res.Err != nil || res.Answer != "0" {
			t.Fatalf("%s: answer %q, err %v", v, res.Answer, res.Err)
		}
		peak := maxOver(m.sizes, 0, len(m.sizes))
		start, end := m.sizes[0], m.sizes[len(m.sizes)-1]
		if peak[1] < depth || peak[2] < start[2]+depth {
			t.Errorf("%s: peak account %v does not hold the recursion's %d frames and bindings (start %v)", v, peak, depth, start)
		}
		for i, what := range []string{"ribs", "frames", "pairs"} {
			if end[i] > start[i]+8 {
				t.Errorf("%s: %s %d at the end, %d at the start: released references stayed", v, what, end[i], start[i])
			}
		}
	}
}
