package experiments

import (
	"fmt"
	"sort"

	"tailspace/internal/core"
	"tailspace/internal/obs"
	"tailspace/internal/space"
)

// hierarchyChecks are the pointwise inequalities of Theorem 24, as pairs
// (smaller, larger).
var hierarchyChecks = [][2]string{
	{"tail", "gc"},
	{"gc", "stack"},
	{"sfs", "evlis"},
	{"evlis", "tail"},
	{"sfs", "free"},
	{"free", "tail"},
	// Contract monitors: erasure never does less than nothing, and the
	// duplicate-dropping join never keeps more pending checks than the
	// naive chain — S_tail ≤ S_spaceff ≤ S_naive pointwise.
	{"tail", "spaceff"},
	{"spaceff", "naive"},
}

// Hierarchy reproduces Figure 6 / Theorem 24: for each probe program and
// input, measure S_X under every reference implementation and check the
// pointwise inequalities
//
//	S_tail ≤ S_gc ≤ S_stack,  S_sfs ≤ S_evlis ≤ S_tail,  S_sfs ≤ S_free ≤ S_tail
//
// together with U_X ≤ S_X (Section 13) for every X.
func Hierarchy(programs map[string]string, n int) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Figure 6 / Theorem 24: space hierarchy at n=%d (flat S_X; U_X in parens)", n),
		Header: []string{"program", "stack", "gc", "tail", "evlis", "free", "sfs", "naive", "spaceff"},
	}
	names := make([]string, 0, len(programs))
	for name := range programs {
		names = append(names, name)
	}
	sort.Strings(names)

	// The full (program × machine) grid runs on the shared worker pool; the
	// table rows and inequality checks are assembled sequentially afterwards,
	// so the output is identical to a sequential run.
	type cell struct {
		flat, linked int
		metrics      *obs.Metrics
	}
	cells := make([]cell, len(names)*len(core.Variants))
	err := runGrid(len(cells), func(i int) error {
		name := names[i/len(core.Variants)]
		v := core.Variants[i%len(core.Variants)]
		res, err := core.RunApplication(programs[name], fmt.Sprintf("(quote %d)", n), core.Options{
			Variant: v, Measure: true, GCEvery: 1, MaxSteps: 5_000_000,
			CostModel: expModel(space.Fixnum),
		})
		if err != nil {
			return fmt.Errorf("hierarchy: %s [%s]: %w", name, v, err)
		}
		if res.Err != nil {
			return fmt.Errorf("hierarchy: %s [%s]: %w", name, v, res.Err)
		}
		cells[i] = cell{flat: res.PeakFlat, linked: res.PeakLinked, metrics: res.Metrics}
		return nil
	})
	if err != nil {
		return t, err
	}
	for _, c := range cells {
		t.Absorb(c.metrics)
	}

	for ni, name := range names {
		flat := map[string]int{}
		linked := map[string]int{}
		row := []string{name}
		for vi, v := range core.Variants {
			c := cells[ni*len(core.Variants)+vi]
			flat[v.Name] = c.flat
			linked[v.Name] = c.linked
			row = append(row, fmt.Sprintf("%d (%d)", c.flat, c.linked))
		}
		t.Rows = append(t.Rows, row)
		for _, c := range hierarchyChecks {
			if flat[c[0]] > flat[c[1]] {
				t.Violationf("%s: S_%s (%d) > S_%s (%d)", name, c[0], flat[c[0]], c[1], flat[c[1]])
			}
		}
		// Section 13: the analogue of Theorem 24 holds for linked
		// environments on the machines that can use them (Z_free and Z_sfs
		// require flat environments, so U_free and U_sfs "have no practical
		// meaning" and are excluded).
		for _, c := range [][2]string{{"tail", "gc"}, {"gc", "stack"}, {"evlis", "tail"}} {
			if linked[c[0]] > linked[c[1]] {
				t.Violationf("%s: U_%s (%d) > U_%s (%d)", name, c[0], linked[c[0]], c[1], linked[c[1]])
			}
		}
		for _, v := range core.Variants {
			if linked[v.Name] > flat[v.Name] {
				t.Violationf("%s: U_%s (%d) > S_%s (%d)", name, v.Name, linked[v.Name], v.Name, flat[v.Name])
			}
		}
	}
	t.Notef("checked pointwise: S_tail<=S_gc<=S_stack, S_sfs<=S_evlis<=S_tail, S_sfs<=S_free<=S_tail, S_tail<=S_spaceff<=S_naive, U_X<=S_X, and the §13 linked analogue U_tail<=U_gc<=U_stack, U_evlis<=U_tail")
	return t, nil
}

// HierarchyProbePrograms is the default probe set: the four Theorem 25
// separation programs (which stress exactly the rules the variants differ
// in), the Section 4 example, and the contracted loop (which stresses the
// monitor inequalities — on the contract-free probes the monitor machines
// coincide with Z_tail exactly).
func HierarchyProbePrograms() map[string]string {
	return map[string]string{
		"vector-frames":   VectorFrames,
		"countdown":       CountdownLoop,
		"thunk-return":    ThunkReturn,
		"closure-capture": ClosureCapture,
		"find-leftmost":   FindLeftmostProgram("left-spine"),
		"contracted-loop": ContractedLoop,
	}
}
