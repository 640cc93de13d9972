package experiments

import (
	"fmt"
	"math/rand"

	"tailspace/internal/core"
	"tailspace/internal/corpus"
	"tailspace/internal/denot"
)

// DenotationalAgreement discharges the Section 16 future-work item
// empirically: every answer computed by the denotational semantics (the
// definitional interpreter of internal/denot) is computed by every reference
// implementation. The probe set is the whole corpus plus freshly generated
// random programs.
func DenotationalAgreement(randomCount int) (Table, error) {
	t := Table{
		Title:  "Section 16: denotational semantics vs the reference implementations",
		Header: []string{"program", "denotational answer", "machines agreeing"},
	}

	type probe struct{ name, src string }
	var probes []probe
	for _, p := range corpus.All() {
		probes = append(probes, probe{p.Name, p.Source})
	}
	r := rand.New(rand.NewSource(1998)) // the paper's year, for luck
	for i := 0; i < randomCount; i++ {
		probes = append(probes, probe{fmt.Sprintf("random-%02d", i), RandomProgram(r, 4)})
	}

	for _, p := range probes {
		v, st, err := denot.Run(p.src)
		if err != nil {
			return t, fmt.Errorf("denot: %s: %w", p.name, err)
		}
		want := core.Answer(v, st)
		agreeing := 0
		for _, variant := range core.AllVariants {
			res, err := core.RunProgram(p.src, core.Options{Variant: variant, MaxSteps: 5_000_000})
			if err != nil {
				return t, fmt.Errorf("%s [%s]: %w", p.name, variant, err)
			}
			if res.Err != nil {
				return t, fmt.Errorf("%s [%s]: %w", p.name, variant, res.Err)
			}
			if res.Answer == want {
				agreeing++
			} else {
				t.Violationf("%s: [%s] answered %q, denotational semantics %q",
					p.name, variant, res.Answer, want)
			}
		}
		t.AddRow(p.name, truncate(want, 32), fmt.Sprintf("%d/%d", agreeing, len(core.AllVariants)))
	}
	t.Notef("machines include the Section 14 MTA variant alongside the paper's six")
	return t, nil
}
