package experiments

import (
	"fmt"

	"tailspace/internal/core"
	"tailspace/internal/space"
	"tailspace/internal/value"
)

// ReturnEnvAblation justifies the one non-obvious semantic reading this
// reproduction makes (see DESIGN.md): the environments saved in return
// continuations are charged by Figure 7 but are not GC roots. The ablation
// flips that reading — return environments become roots, the maximally
// literal reading of the GC rule — and re-runs Theorem 25(a)'s program under
// Z_gc: the vectors bound in caller environments are then retained until
// every frame pops, Z_gc's reachability becomes identical to Z_stack's, and
// the paper's first separation collapses (both machines quadratic). The
// proofs therefore force the charged-but-dead reading.
func ReturnEnvAblation() (Table, error) {
	t := Table{
		Title:  "Ablation: are return-continuation environments GC roots? (Theorem 25(a) under Z_gc)",
		Header: []string{"reading", "S(8)", "S(16)", "S(32)", "S(64)", "fit", "separation survives?"},
	}
	ns := []int{8, 16, 32, 64}

	measure := func(rootEnvs bool) ([]int, error) {
		value.RootReturnEnvironments = rootEnvs
		defer func() { value.RootReturnEnvironments = false }()
		peaks := make([]int, 0, len(ns))
		for _, n := range ns {
			res, err := core.RunApplication(VectorFrames, fmt.Sprintf("(quote %d)", n), core.Options{
				Variant: core.GC, Measure: true, FlatOnly: true,
				GCEvery: 1, CostModel: expModel(space.Fixnum), MaxSteps: 5_000_000,
			})
			if err != nil {
				return nil, err
			}
			if res.Err != nil {
				return nil, res.Err
			}
			peaks = append(peaks, res.PeakFlat)
		}
		return peaks, nil
	}

	dead, err := measure(false)
	if err != nil {
		return t, err
	}
	rooted, err := measure(true)
	if err != nil {
		return t, err
	}

	deadFit := FitGrowth(ns, dead)
	rootedFit := FitGrowth(ns, rooted)

	row := func(label string, peaks []int, fit Fit, survives string) {
		cells := []string{label}
		for _, p := range peaks {
			cells = append(cells, itoa(p))
		}
		cells = append(cells, fmt.Sprintf("n^%.2f", fit.Exponent), survives)
		t.Rows = append(t.Rows, cells)
	}
	deadOK := "yes"
	if deadFit.Class() != Linear {
		deadOK = "NO"
		t.Violationf("charged-but-dead reading: S_gc fitted %s, should be linear", deadFit.Class())
	}
	rootedOK := "no (as predicted)"
	if rootedFit.Class() != Quadratic {
		rootedOK = "UNEXPECTED"
		t.Violationf("rooted reading: S_gc fitted %s, should collapse to quadratic", rootedFit.Class())
	}
	row("charged but dead (ours)", dead, deadFit, deadOK)
	row("rooted (literal)", rooted, rootedFit, rootedOK)

	t.Notef("program: Theorem 25(a)'s vector-frames under Z_gc; Z_stack is quadratic either way")
	t.Notef("with rooted return environments Z_gc retains exactly what Z_stack retains, so O(S_stack) ⊄ O(S_gc) cannot hold")
	return t, nil
}
