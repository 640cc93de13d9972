package experiments

import (
	"fmt"

	"tailspace/internal/core"
	"tailspace/internal/space"
)

// MTAExperiment reproduces the Section 14 observation: a standard technique
// for properly tail recursive C code "allocate[s] stack frames for all
// calls, but ... perform[s] periodic garbage collection of stack frames as
// well as heap nodes [Bak95]. A definition of proper tail recursion that is
// based on asymptotic space complexity allows this technique. To my
// knowledge, no other formal definitions do."
//
// The MTA machine pushes a return frame on every call — syntactically it is
// Z_gc, improper by any rule-shape definition — yet its frame-collecting GC
// keeps the countdown loop in constant space, so by Definition 5 it IS
// properly tail recursive. The table shows S on the loop for Z_tail, Z_mta
// at two collection periods, and Z_gc.
func MTAExperiment(ns []int) (Table, error) {
	if len(ns) == 0 {
		ns = []int{16, 64, 256, 1024}
	}
	t := Table{
		Title:  "Section 14: Cheney-on-the-MTA frame collection on the countdown loop",
		Header: append([]string{"machine"}, nsHeader(ns)...),
	}
	t.Header = append(t.Header, "fit", "properly tail recursive?")

	cases := []struct {
		label   string
		variant core.Variant
		gcEvery int
		claim   GrowthClass
	}{
		{"tail", core.Tail, 1, Constant},
		{"mta (collect every step)", core.MTA, 1, Constant},
		{"mta (collect every 25)", core.MTA, 25, Constant},
		{"gc (no frame collection)", core.GC, 1, Linear},
	}
	for _, c := range cases {
		peaks := make([]int, 0, len(ns))
		for _, n := range ns {
			res, err := core.RunApplication(CountdownLoop, fmt.Sprintf("(quote %d)", n), core.Options{
				Variant: c.variant, Measure: true, FlatOnly: true,
				GCEvery: c.gcEvery, CostModel: expModel(space.Fixnum), MaxSteps: 5_000_000,
			})
			if err != nil {
				return t, err
			}
			if res.Err != nil {
				return t, res.Err
			}
			peaks = append(peaks, res.PeakFlat)
		}
		fit := FitGrowth(ns, peaks)
		verdict := "yes"
		if fit.Class() != Constant {
			verdict = "no"
		}
		if fit.Class() != c.claim {
			t.Violationf("%s fitted %s, expected %s", c.label, fit.Class(), c.claim)
		}
		row := []string{c.label}
		for _, p := range peaks {
			row = append(row, itoa(p))
		}
		row = append(row, fmt.Sprintf("n^%.2f", fit.Exponent), verdict)
		t.Rows = append(t.Rows, row)
	}
	t.Notef("mta pushes a continuation for EVERY call, exactly like gc; only its collector differs")
	t.Notef("no syntactic definition of proper tail recursion admits mta; the space-class definition does")
	return t, nil
}
