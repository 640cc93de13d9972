package experiments

import (
	"fmt"

	"tailspace/internal/core"
	"tailspace/internal/obs"
	"tailspace/internal/space"
)

// SeriesPoint is one measurement: program applied to (quote N).
type SeriesPoint struct {
	N         int
	Flat      int // |P| + peak Figure 7 space: the S_X(P, N) sample
	Linked    int // |P| + peak Figure 8 space: the U_X(P, N) sample
	Heap      int // peak live locations
	Steps     int
	ContDepth int
}

// Series is a sweep of one program under one variant across inputs.
type Series struct {
	Label   string
	Variant core.Variant
	Points  []SeriesPoint
	// Metrics aggregates the per-run registries across the sweep: counters
	// (transitions by rule, GC work, allocations) sum over the inputs, gauges
	// (peaks) take the maximum.
	Metrics *obs.Metrics
}

// Ns returns the swept input sizes.
func (s Series) Ns() []int {
	out := make([]int, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.N
	}
	return out
}

// FlatPeaks returns the S_X samples.
func (s Series) FlatPeaks() []int {
	out := make([]int, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Flat
	}
	return out
}

// LinkedPeaks returns the U_X samples.
func (s Series) LinkedPeaks() []int {
	out := make([]int, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Linked
	}
	return out
}

// FitFlat fits the growth of S_X against N.
func (s Series) FitFlat() Fit { return FitGrowth(s.Ns(), s.FlatPeaks()) }

// SweepOptions configures a sweep.
type SweepOptions struct {
	// Model is the space cost model for the sweep (nil means the default
	// WordModel); the package-wide SetCostModel override, when installed,
	// wins over it.
	Model    space.CostModel
	MaxSteps int
	Order    core.ArgOrder
	// FlatOnly skips the linked (Figure 8) measurement when only S_X is
	// being fitted.
	FlatOnly bool
}

// SweepProgram measures one fixed program applied to each (quote N).
func SweepProgram(label, programSrc string, v core.Variant, ns []int, opts SweepOptions) (Series, error) {
	return sweep(label, func(int) string { return programSrc }, v, ns, opts)
}

// SweepGenerated measures a program family P_N (the program text may depend
// on N, as in Theorem 26) applied to (quote N).
func SweepGenerated(label string, gen func(n int) string, v core.Variant, ns []int, opts SweepOptions) (Series, error) {
	return sweep(label, gen, v, ns, opts)
}

func sweep(label string, gen func(n int) string, v core.Variant, ns []int, opts SweepOptions) (Series, error) {
	s := Series{Label: label, Variant: v}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 5_000_000
	}
	// Each input size is an independent run with its own store and meter, so
	// the sweep fans out over the shared worker pool; points land in input
	// order and the per-run metric registries are merged afterwards.
	points := make([]SeriesPoint, len(ns))
	metrics := make([]*obs.Metrics, len(ns))
	err := runGrid(len(ns), func(i int) error {
		n := ns[i]
		res, err := core.RunApplication(gen(n), fmt.Sprintf("(quote %d)", n), core.Options{
			Variant:   v,
			Measure:   true,
			FlatOnly:  opts.FlatOnly,
			GCEvery:   1,
			MaxSteps:  maxSteps,
			CostModel: expModel(opts.Model),
			Order:     opts.Order,
			Cancel:    cancelChan(),
		})
		if err != nil {
			return fmt.Errorf("%s [%s] n=%d: %w", label, v, n, err)
		}
		if res.Err != nil {
			return fmt.Errorf("%s [%s] n=%d: %w", label, v, n, res.Err)
		}
		points[i] = SeriesPoint{
			N: n, Flat: res.PeakFlat, Linked: res.PeakLinked,
			Heap: res.PeakHeap, Steps: res.Steps, ContDepth: res.PeakContDepth,
		}
		metrics[i] = res.Metrics
		return nil
	})
	if err != nil {
		return s, err
	}
	s.Points = points
	s.Metrics = obs.NewMetrics()
	for _, m := range metrics {
		s.Metrics.Merge(m)
	}
	return s, nil
}
