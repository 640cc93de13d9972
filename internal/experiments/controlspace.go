package experiments

import (
	"fmt"

	"tailspace/internal/analysis"
	"tailspace/internal/core"
	"tailspace/internal/corpus"
)

// ControlSpaceExperiment validates the static control-space analyzer (a step
// toward the paper's §16 program of formal reasoning about space) against
// the machine: for parameterized programs, a Bounded verdict must coincide
// with input-independent peak continuation depth under Z_tail, and an
// Unbounded verdict with growing depth. The corpus census is reported too.
func ControlSpaceExperiment() (Table, error) {
	t := Table{
		Title:  "§16: static control-space analysis vs measured continuation depth (Z_tail)",
		Header: []string{"program", "verdict", "depth(n=16)", "depth(n=128)", "agrees"},
	}

	probes := []struct {
		name string
		gen  func(n int) string
	}{
		{"countdown", func(n int) string {
			return fmt.Sprintf("(define (f n) (if (zero? n) 0 (f (- n 1)))) (f %d)", n)
		}},
		{"sum-rec", func(n int) string {
			return fmt.Sprintf("(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1))))) (sum %d)", n)
		}},
		{"even-odd", func(n int) string {
			return fmt.Sprintf(`
(define (even2? n) (if (zero? n) #t (odd2? (- n 1))))
(define (odd2? n) (if (zero? n) #f (even2? (- n 1))))
(even2? %d)`, n)
		}},
		{"cps-countdown", func(n int) string {
			return fmt.Sprintf(`
(define (f n k) (if (zero? n) (k 0) (f (- n 1) k)))
(f %d (lambda (x) x))`, n)
		}},
		{"closure-capture", func(n int) string {
			return fmt.Sprintf(`
(define (f n)
  (if (zero? n)
      0
      ((lambda () (begin (f (- n 1)) n)))))
(f %d)`, n)
		}},
		{"mutual-nontail", func(n int) string {
			return fmt.Sprintf(`
(define (f n) (g n))
(define (g n) (if (zero? n) 0 (+ 1 (f (- n 1)))))
(f %d)`, n)
		}},
	}

	depthAt := func(src string) (int, error) {
		res, err := core.RunProgram(src, core.Options{Variant: core.Tail, MaxSteps: 5_000_000})
		if err != nil {
			return 0, err
		}
		if res.Err != nil {
			return 0, res.Err
		}
		return res.PeakContDepth, nil
	}

	for _, p := range probes {
		rep, err := analysis.ControlSpaceSource(p.gen(16))
		if err != nil {
			return t, fmt.Errorf("controlspace: %s: %w", p.name, err)
		}
		small, err := depthAt(p.gen(16))
		if err != nil {
			return t, fmt.Errorf("controlspace: %s: %w", p.name, err)
		}
		large, err := depthAt(p.gen(128))
		if err != nil {
			return t, fmt.Errorf("controlspace: %s: %w", p.name, err)
		}
		grew := large > small
		agrees := "yes"
		switch rep.Verdict {
		case analysis.BoundedControl:
			if grew {
				agrees = "NO"
				t.Violationf("%s: verdict bounded but depth grew %d -> %d", p.name, small, large)
			}
		case analysis.UnboundedControl:
			if !grew {
				agrees = "NO"
				t.Violationf("%s: verdict unbounded but depth flat at %d", p.name, small)
			}
		default:
			agrees = "n/a" // Unknown makes no claim
		}
		t.AddRow(p.name, rep.Verdict.String(), itoa(small), itoa(large), agrees)
	}

	// Census over the corpus: how much idiomatic code the analysis can
	// prove bounded without any closure analysis.
	counts := map[analysis.Verdict]int{}
	for _, p := range corpus.All() {
		rep, err := analysis.ControlSpaceSource(p.Source)
		if err != nil {
			return t, fmt.Errorf("controlspace census: %s: %w", p.Name, err)
		}
		counts[rep.Verdict]++
	}
	t.Notef(fmt.Sprintf("corpus census: %d bounded, %d unbounded, %d unknown of %d programs",
		counts[analysis.BoundedControl], counts[analysis.UnboundedControl],
		counts[analysis.UnknownControl], len(corpus.All())))
	t.Notef("bounded = continuation depth provably independent of the input under Z_tail")
	return t, nil
}
