package tailspace

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestLogModelGapExample runs examples/log-model-gap.scm end to end through
// the public API and checks the property the file advertises: the marginal
// peak cost of one more live cell is constant under the word model (Theta(n)
// total) but grows under the log model (Theta(n log n) total). The whole-peak
// ratio is the wrong witness — the prelude's additive constant dominates at
// small n — so the test compares first- and last-segment slopes, exactly as
// the spacelab costmodels experiment does.
func TestLogModelGapExample(t *testing.T) {
	data, err := os.ReadFile("examples/log-model-gap.scm")
	if err != nil {
		t.Fatal(err)
	}
	// Drop the trailing standalone call so the remaining define-form program
	// (whose value is the one-argument procedure f) can be applied per input.
	src := strings.TrimSpace(string(data))
	const call = "(f 256)"
	if !strings.HasSuffix(src, call) {
		t.Fatalf("examples/log-model-gap.scm must end with the standalone call %s", call)
	}
	prog := strings.TrimSuffix(src, call)

	ns := []int{16, 64, 256, 1024}
	peaks := map[string][]int{}
	for _, model := range []string{"word", "log"} {
		for _, n := range ns {
			res, err := Apply(prog, fmt.Sprintf("(quote %d)", n),
				Options{Variant: Tail, Measure: true, CostModel: model})
			if err != nil {
				t.Fatalf("[%s n=%d] %v", model, n, err)
			}
			peaks[model] = append(peaks[model], res.SpaceFlat)
		}
	}

	slope := func(p []int, i int) float64 {
		return float64(p[i+1]-p[i]) / float64(ns[i+1]-ns[i])
	}
	last := len(ns) - 2
	if first, end := slope(peaks["word"], 0), slope(peaks["word"], last); end > 1.15*first || first > 1.15*end {
		t.Errorf("word model: marginal words per live cell must stay constant, got %.1f → %.1f (peaks %v)",
			first, end, peaks["word"])
	}
	if first, end := slope(peaks["log"], 0), slope(peaks["log"], last); end < 1.25*first {
		t.Errorf("log model: marginal words per live cell must grow with the pointer width, got %.1f → %.1f (peaks %v)",
			first, end, peaks["log"])
	}
}

// TestContractedExamples runs the two contract example files end to end
// through the public API and checks the properties their comments advertise.
// contracted-loop (a loop-invariant contract): the naive monitor chains a
// pending check per call while the space-efficient monitor joins duplicates
// away — the Greenberg separation. contracted-leak (a per-iteration
// contract): fresh identities defeat the join, so both monitors chain.
func TestContractedExamples(t *testing.T) {
	loadExample := func(name string) string {
		data, err := os.ReadFile("examples/" + name)
		if err != nil {
			t.Fatal(err)
		}
		src := strings.TrimSpace(string(data))
		const call = "(f 100)"
		if !strings.HasSuffix(src, call) {
			t.Fatalf("examples/%s must end with the standalone call %s", name, call)
		}
		return strings.TrimSuffix(src, call)
	}
	peak := func(prog string, v Variant, n int) int {
		res, err := Apply(prog, fmt.Sprintf("(quote %d)", n),
			Options{Variant: v, Measure: true, CostModel: "fixnum"})
		if err != nil {
			t.Fatalf("[%s n=%d] %v", v, n, err)
		}
		if res.Answer != "0" {
			t.Fatalf("[%s n=%d] answer %q, want 0", v, n, res.Answer)
		}
		return res.SpaceFlat
	}
	// The prelude's peak masks the monitor chain at small n, so the growth
	// probe needs a deep input (see also the service wire test).
	const small, big = 8, 512
	grows := func(prog string, v Variant) bool {
		return peak(prog, v, big)-peak(prog, v, small) >= big-small
	}

	loop := loadExample("contracted-loop.scm")
	if !grows(loop, Naive) {
		t.Error("contracted-loop: the naive monitor's peak must chain with the input")
	}
	if grows(loop, SpaceEff) {
		t.Error("contracted-loop: the space-efficient monitor's peak must stay bounded")
	}
	if grows(loop, Tail) {
		t.Error("contracted-loop: the erasing machine must run in constant space")
	}

	leak := loadExample("contracted-leak.scm")
	for _, v := range []Variant{Naive, SpaceEff} {
		if !grows(leak, v) {
			t.Errorf("contracted-leak: the per-iteration contract must chain on %s", v)
		}
	}
	if grows(leak, Tail) {
		t.Error("contracted-leak: the erasing machine must run in constant space")
	}
}
