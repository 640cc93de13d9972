package experiments

import (
	"fmt"
	"testing"

	"tailspace/internal/core"
	"tailspace/internal/corpus"
	"tailspace/internal/value"
)

// TestSweepRowsNeverTrace runs the subjects of a spacelab sweep row (the
// hierarchy probes and the parametric programs) at small n on the eight
// machines, as a row runs them: both meters and the GC rule after every
// transition. Apart from the first collection of a run, which builds the
// count account, no collection may fall back to tracing, and trial deletion
// must run. The collector takes a frame whose count fell for live without
// a trace only near the top of κ; a rule that missed an ordinary pop, or an
// escape dying on κ, would trace on these programs.
func TestSweepRowsNeverTrace(t *testing.T) {
	progs := HierarchyProbePrograms()
	for _, p := range corpus.ParametricPrograms() {
		progs["param/"+p.Name] = p.Source
	}
	var total value.CollectStats
	for name, src := range progs {
		for _, n := range []int{4, 8} {
			for _, v := range core.Variants {
				res, err := core.RunApplication(src, fmt.Sprintf("(quote %d)", n),
					core.Options{Variant: v, Measure: true, GCEvery: 1})
				if err == nil {
					err = res.Err
				}
				if err != nil {
					t.Fatalf("%s n=%d on %s: %v", name, n, v.Name, err)
				}
				st := res.Store.CollectStats()
				if st.Fallbacks != 0 {
					t.Errorf("%s n=%d on %s: %d collections fell back to tracing", name, n, v.Name, st.Fallbacks)
				}
				total.Trials += st.Trials
			}
		}
	}
	if total.Trials == 0 {
		t.Error("no collection ran trial deletion")
	}
	t.Logf("%d programs: %d collections ran trial deletion", len(progs), total.Trials)
}
