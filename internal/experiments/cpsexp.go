package experiments

import (
	"fmt"

	"tailspace/internal/analysis"
	"tailspace/internal/ast"
	"tailspace/internal/core"
	"tailspace/internal/corpus"
	"tailspace/internal/cps"
	"tailspace/internal/prim"
	"tailspace/internal/space"
)

// CPSExperiment reproduces the Section 1 / [Ste78] lens on proper tail
// recursion: after CPS conversion every call to an unknown procedure is a
// tail call, the observable answers are unchanged, and the conversion
// preserves the space class of iterative programs — "it is perfectly
// feasible to write large programs in which no procedure ever returns"
// (Section 4), and proper tail recursion is exactly what lets such programs
// run in bounded control space.
func CPSExperiment() (Table, error) {
	t := Table{
		Title:  "Section 1/[Ste78]: CPS conversion — tail-call shape, answers, and space",
		Header: []string{"program", "direct tail %", "CPS tail %", "CPS non-tail", "answer"},
	}
	for _, p := range corpus.All() {
		if !cpsConvertible(p.Name) {
			continue
		}
		direct, err := analysis.AnalyzeSource(p.Name, p.Source)
		if err != nil {
			return t, err
		}
		converted, err := cps.ConvertSource(p.Source)
		if err != nil {
			return t, fmt.Errorf("cps: %s: %w", p.Name, err)
		}
		after := analysis.Analyze(converted)

		// The structural invariant: every non-tail call applies a known
		// primitive directly.
		badNonTail := 0
		info := ast.MarkTails(converted)
		ast.Walk(converted, func(x ast.Expr) bool {
			call, ok := x.(*ast.Call)
			if !ok || info.IsTail(call) {
				return true
			}
			if op, ok := call.Operator().(*ast.Var); ok {
				if _, isPrim := prim.Lookup(op.Name); isPrim {
					return true
				}
			}
			badNonTail++
			return true
		})
		if badNonTail > 0 {
			t.Violationf("%s: %d non-tail calls to unknown procedures after CPS", p.Name, badNonTail)
		}

		res := core.NewRunner(core.Options{Variant: core.Tail, MaxSteps: 8_000_000}).Run(converted)
		t.Absorb(res.Metrics)
		verdict := res.Answer
		if res.Err != nil {
			verdict = "ERROR"
			t.Violationf("%s: CPS program failed: %v", p.Name, res.Err)
			t.Incompletef("%s: CPS run ended without an answer: %v", p.Name, res.Err)
		} else if res.Answer != p.Answer {
			t.Violationf("%s: CPS answered %q, want %q", p.Name, res.Answer, p.Answer)
		}
		t.AddRow(p.Name,
			pct(direct.Percent(direct.Tail())),
			pct(after.Percent(after.Tail())),
			itoa(after.NonTail),
			truncate(verdict, 24))
	}

	// Space preservation: the countdown loop stays O(1) under Z_tail after
	// conversion.
	loopCPS := func(n int) (int, error) {
		converted, err := cps.ConvertSource(CountdownLoop + fmt.Sprintf("\n(f %d)", n))
		if err != nil {
			return 0, err
		}
		res := core.NewRunner(core.Options{
			Variant: core.Tail, Measure: true, FlatOnly: true,
			GCEvery: 1, CostModel: expModel(space.Fixnum), MaxSteps: 8_000_000,
		}).Run(converted)
		return res.PeakFlat, res.Err
	}
	small, err := loopCPS(10)
	if err != nil {
		return t, err
	}
	large, err := loopCPS(500)
	if err != nil {
		return t, err
	}
	if large-small > 4 {
		t.Violationf("CPS countdown loop not constant: S(10)=%d S(500)=%d", small, large)
	}
	t.Notef(fmt.Sprintf("CPS countdown under Z_tail: S(10)=%d, S(500)=%d — conversion preserves O(1)", small, large))
	t.Notef("all remaining non-tail calls in CPS output are direct applications of standard procedures")
	t.Notef("programs using `apply` are skipped (a CPS compiler open-codes it; see internal/cps)")
	return t, nil
}

func cpsConvertible(name string) bool {
	switch name {
	case "apply-spread", "fold-apply", "metacircular", "metacircular-tail-loop":
		return false
	}
	return true
}
