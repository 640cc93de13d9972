package core

import (
	"testing"

	"tailspace/internal/corpus"
	"tailspace/internal/obs"
)

// TestRuleCountersSumToStepsAcrossCorpus is the accounting invariant behind
// the per-rule metrics: every transition is tagged with exactly one rule, so
// over the whole corpus, under every reference implementation, the per-rule
// counters must sum to Result.Steps.
func TestRuleCountersSumToStepsAcrossCorpus(t *testing.T) {
	for _, v := range Variants {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			t.Parallel()
			for _, p := range corpus.All() {
				res, err := RunProgram(p.Source, Options{Variant: v, MaxSteps: 8_000_000})
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				if res.Err != nil {
					t.Fatalf("%s: %v", p.Name, res.Err)
				}
				m := res.Metrics
				if m == nil {
					t.Fatalf("%s: Result.Metrics is nil", p.Name)
				}
				if got := m.Counter(obs.MetricSteps); got != int64(res.Steps) {
					t.Errorf("%s: metric steps %d != Result.Steps %d", p.Name, got, res.Steps)
				}
				if got := m.SumCounters(obs.MetricRulePrefix); got != int64(res.Steps) {
					t.Errorf("%s: rule counters sum to %d, want Steps %d", p.Name, got, res.Steps)
				}
				if got := m.Counter(obs.MetricRulePrefix + RuleNone.String()); got != 0 {
					t.Errorf("%s: %d transitions tagged with RuleNone", p.Name, got)
				}
				if got := m.Gauge(obs.MetricHeapPeak); got != int64(res.PeakHeap) {
					t.Errorf("%s: heap gauge %d != PeakHeap %d", p.Name, got, res.PeakHeap)
				}
				if got := m.Gauge(obs.MetricContDepthMax); got != int64(res.PeakContDepth) {
					t.Errorf("%s: depth gauge %d != PeakContDepth %d", p.Name, got, res.PeakContDepth)
				}
			}
		})
	}
}

// TestTransitionEventsMatchSteps: with a sink attached, the stream carries
// exactly one transition event per step, each tagged with a real rule, in
// step order.
func TestTransitionEventsMatchSteps(t *testing.T) {
	sink := &sliceSink{}
	res, err := RunApplication(countdownLoop, numInput(25), Options{
		Variant: Tail, Events: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var transitions []obs.Event
	for _, e := range sink.events {
		if e.Type == obs.EventTransition {
			transitions = append(transitions, e)
		}
	}
	if len(transitions) != res.Steps {
		t.Fatalf("%d transition events, want Steps = %d", len(transitions), res.Steps)
	}
	for i, e := range transitions {
		if e.Step != i+1 {
			t.Fatalf("transition %d has step %d", i, e.Step)
		}
		if e.Rule == "" || e.Rule == RuleNone.String() {
			t.Fatalf("transition %d has rule %q", i, e.Rule)
		}
		if e.Measured {
			t.Fatalf("transition %d claims Measured without Options.Measure", i)
		}
	}
}

// TestAttributePeakNamesExpressionAndRule: the peak report must name the
// source expression and machine rule of the configuration that realized the
// flat-space peak, under every reference implementation.
func TestAttributePeakNamesExpressionAndRule(t *testing.T) {
	const src = `
(define (build n) (if (zero? n) (quote ()) (cons n (build (- n 1)))))
(define (sum xs) (if (null? xs) 0 (+ (car xs) (sum (cdr xs)))))
(sum (build 12))`
	for _, v := range Variants {
		res, err := RunProgram(src, Options{
			Variant: v, Measure: true, FlatOnly: true, GCEvery: 1,
			AttributePeak: true, MaxSteps: 1_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("[%s] %v", v, res.Err)
		}
		p := res.Peak
		if p == nil {
			t.Fatalf("[%s] AttributePeak run left Result.Peak nil", v)
		}
		if p.Flat != res.PeakFlat {
			t.Errorf("[%s] report flat %d != PeakFlat %d", v, p.Flat, res.PeakFlat)
		}
		if p.Step < 1 || p.Step > res.Steps {
			t.Errorf("[%s] peak step %d outside run of %d steps", v, p.Step, res.Steps)
		}
		if p.Rule == "" || p.Rule == RuleNone.String() {
			t.Errorf("[%s] report has no rule (%q)", v, p.Rule)
		}
		if p.Expr == "" {
			t.Errorf("[%s] report has no source expression", v)
		}
		if p.NodeID < 1 {
			t.Errorf("[%s] report has no AST node ID (%d)", v, p.NodeID)
		}
		if p.Machine != v.Name {
			t.Errorf("[%s] report names machine %q", v, p.Machine)
		}
	}
}

// TestAttributePeakOffLeavesPeakNil: attribution is opt-in.
func TestAttributePeakOffLeavesPeakNil(t *testing.T) {
	res := measure(t, Tail, countdownLoop, 10, flatOnly)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Peak != nil {
		t.Fatal("Result.Peak set without Options.AttributePeak")
	}
}

// TestAllocEventsAttributedToExpressions: allocations stream with the
// allocating expression attached, and only program allocations are streamed
// (the globals predate the tap).
func TestAllocEventsAttributedToExpressions(t *testing.T) {
	sink := &sliceSink{}
	_, err := RunProgram(`(cons 1 (cons 2 (quote ())))`, Options{Variant: Tail, Events: sink})
	if err != nil {
		t.Fatal(err)
	}
	allocs := 0
	for _, e := range sink.events {
		if e.Type != obs.EventAlloc {
			continue
		}
		allocs++
		if e.Step < 1 {
			t.Fatalf("alloc event before the first transition: %+v", e)
		}
		if e.Expr == "" || e.NodeID < 1 {
			t.Fatalf("alloc event unattributed: %+v", e)
		}
	}
	if allocs == 0 {
		t.Fatal("cons program streamed no alloc events")
	}
}
