package experiments

import (
	"fmt"
	"sort"

	"tailspace/internal/core"
	"tailspace/internal/space"
)

// allocLoop is a constant-live-set loop that allocates a fresh vector every
// iteration, so uncollected garbage is visible.
const allocLoop = `
(define (f n)
  (if (zero? n)
      0
      (f (- (vector-ref (make-vector 4 n) 0) 1))))`

// GCFactor reproduces the Section 12 argument: a real collector that runs
// only every k steps uses no more than some fixed constant R times the space
// of collecting after every computation step ("Usually R <= 3"). The claim
// is asymptotic: for a fixed period k, the peak-space ratio against the
// collect-every-step baseline must stay bounded as the input grows — lazy
// collection costs a constant factor, never a complexity class. We measure
// an allocation-heavy constant-live-set loop across input sizes and periods.
func GCFactor(n int, periods []int) (Table, error) {
	if len(periods) == 0 {
		periods = []int{50, 250, 1000}
	}
	ns := []int{n / 4, n / 2, n}
	t := Table{
		Title:  "Section 12: periodic collection factor R on an allocating loop, Z_tail",
		Header: []string{"n", "S (k=1)"},
	}
	for _, k := range periods {
		t.Header = append(t.Header, fmt.Sprintf("S (k=%d)", k), "ratio")
	}

	// Measure the whole (n × period) grid — the k=1 baseline included — on
	// the shared worker pool, then assemble rows and ratios sequentially.
	ks := append([]int{1}, periods...)
	peaks := make([]int, len(ns)*len(ks))
	err := runGrid(len(peaks), func(i int) error {
		peak, err := measureWithPeriod(ns[i/len(ks)], ks[i%len(ks)])
		if err != nil {
			return err
		}
		peaks[i] = peak
		return nil
	})
	if err != nil {
		return t, err
	}

	ratios := make(map[int][]float64) // period -> ratio per n
	for ni, nn := range ns {
		base := peaks[ni*len(ks)]
		row := []string{itoa(nn), itoa(base)}
		for ki, k := range periods {
			peak := peaks[ni*len(ks)+ki+1]
			ratio := float64(peak) / float64(base)
			ratios[k] = append(ratios[k], ratio)
			row = append(row, itoa(peak), fmt.Sprintf("%.2f", ratio))
			if peak < base {
				t.Violationf("n=%d k=%d: lazier collection cannot use less space (%d < %d)", nn, k, peak, base)
			}
		}
		t.Rows = append(t.Rows, row)
	}

	// Bounded factor: the ratio at the largest n must not exceed R=4, and
	// it must not be growing with n (allow 15% measurement slack).
	for _, k := range periods {
		rs := ratios[k]
		last := rs[len(rs)-1]
		if last > 4.0 {
			t.Violationf("period %d blew the constant factor at n=%d: %.2f", k, ns[len(ns)-1], last)
		}
		if last > rs[0]*1.15 && last-rs[0] > 0.1 {
			t.Violationf("period %d ratio grows with n (%.2f -> %.2f): not a constant factor", k, rs[0], last)
		}
	}
	t.Notef("the loop's live set is constant and it allocates a vector per iteration, so every extra word is uncollected garbage")
	return t, nil
}

func measureWithPeriod(n, k int) (int, error) {
	res, err := core.RunApplication(allocLoop, fmt.Sprintf("(quote %d)", n), core.Options{
		Variant: core.Tail, Measure: true, FlatOnly: true, GCEvery: k,
		MaxSteps: 5_000_000, CostModel: expModel(space.Fixnum),
	})
	if err != nil {
		return 0, err
	}
	if res.Err != nil {
		return 0, res.Err
	}
	return res.PeakFlat, nil
}

// Corollary20 runs a program set under every variant and argument order and
// checks that all computations produce the same observable answer.
func Corollary20(programs map[string]string) (Table, error) {
	t := Table{
		Title:  "Corollary 20: all reference implementations compute the same answers",
		Header: []string{"program", "answer", "runs"},
	}
	orders := []core.ArgOrder{core.LeftToRight, core.RightToLeft, core.RandomOrder}
	names := make([]string, 0, len(programs))
	for name := range programs {
		names = append(names, name)
	}
	sort.Strings(names)

	// One answer per (program, machine, order) cell, computed on the shared
	// pool; agreement is checked sequentially against the first cell of each
	// program's block.
	perProgram := len(core.Variants) * len(orders)
	answers := make([]string, len(names)*perProgram)
	err := runGrid(len(answers), func(i int) error {
		name := names[i/perProgram]
		v := core.Variants[i%perProgram/len(orders)]
		o := orders[i%len(orders)]
		res, err := core.RunProgram(programs[name], core.Options{
			Variant: v, Order: o, Seed: 42, MaxSteps: 5_000_000,
		})
		if err != nil {
			return fmt.Errorf("corollary20: %s: %w", name, err)
		}
		if res.Err != nil {
			return fmt.Errorf("corollary20: %s [%s]: %w", name, v, res.Err)
		}
		answers[i] = res.Answer
		return nil
	})
	if err != nil {
		return t, err
	}

	for ni, name := range names {
		want := answers[ni*perProgram]
		for j := 1; j < perProgram; j++ {
			if got := answers[ni*perProgram+j]; got != want {
				v := core.Variants[j/len(orders)]
				o := orders[j%len(orders)]
				t.Violationf("%s: [%s/order %v] answered %q, others %q", name, v, o, got, want)
			}
		}
		t.AddRow(name, truncate(want, 32), itoa(perProgram))
	}
	return t, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
