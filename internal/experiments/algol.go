package experiments

import (
	"errors"
	"fmt"

	"tailspace/internal/core"
	"tailspace/internal/corpus"
)

// AlgolSubset measures how much of the corpus lies in the "Algol-like subset
// of Scheme" (Section 8): the programs for which Z_stack can always choose
// A = {β1,...,βn} — whole-frame deletion — without ever creating a dangling
// pointer. Section 5's point is that idiomatic Scheme constantly escapes
// this subset (closures, explicit continuations, CPS), which is why
// deletion strategies and proper tail recursion conflict.
func AlgolSubset() (Table, error) {
	t := Table{
		Title:  "Section 5/8: which corpus programs are Algol-like (strict whole-frame deletion)",
		Header: []string{"program", "strict Z_stack", "safe-subset Z_stack"},
	}
	algol := 0
	total := 0
	for _, p := range corpus.All() {
		total++
		strictVerdict := "runs"
		res, err := core.RunProgram(p.Source, core.Options{
			Variant: core.Stack, StackStrict: true, MaxSteps: 5_000_000,
		})
		if err != nil {
			return t, fmt.Errorf("algol: %s: %w", p.Name, err)
		}
		if res.Err != nil {
			var stuck *core.StuckError
			if errors.As(res.Err, &stuck) && stuck.IsDangling() {
				strictVerdict = "dangles"
			} else {
				return t, fmt.Errorf("algol: %s: unexpected %w", p.Name, res.Err)
			}
		} else {
			if res.Answer != p.Answer {
				return t, fmt.Errorf("algol: %s: wrong answer %q", p.Name, res.Answer)
			}
			algol++
		}

		// The maximal-safe choice of A must always complete (the paper's
		// nondeterminism resolved in the program's favour).
		safe, err := core.RunProgram(p.Source, core.Options{Variant: core.Stack, MaxSteps: 5_000_000})
		if err != nil {
			return t, err
		}
		t.Absorb(safe.Metrics)
		safeVerdict := "runs"
		if safe.Err != nil {
			safeVerdict = "FAILS"
			t.Violationf("%s: safe-subset Z_stack must always complete: %v", p.Name, safe.Err)
			t.Incompletef("%s: safe-subset Z_stack run ended without an answer: %v", p.Name, safe.Err)
		} else if safe.Answer != p.Answer {
			t.Violationf("%s: safe-subset Z_stack answered %q, want %q", p.Name, safe.Answer, p.Answer)
		}
		t.AddRow(p.Name, strictVerdict, safeVerdict)
	}
	t.AddRow("TOTAL", fmt.Sprintf("%d/%d Algol-like", algol, total), fmt.Sprintf("%d/%d", total, total))
	if algol == total {
		t.Violationf("a realistic Scheme corpus should escape the Algol-like subset somewhere")
	}
	if algol == 0 {
		t.Violationf("some corpus programs (pure loops) should be Algol-like")
	}
	t.Notef("'dangles' = whole-frame deletion would free a location that a closure or continuation still references")
	return t, nil
}
