package core

import (
	"errors"
	"testing"
	"time"

	"tailspace/internal/obs"
)

// infiniteLoop diverges under every machine: a self-application that never
// allocates unboundedly under Z_tail, so only cancellation (or MaxSteps)
// can end the run.
const infiniteLoop = "((lambda (f) (f f)) (lambda (f) (f f)))"

// TestCancelMidRun cancels an infinite Tail-machine loop mid-computation
// and asserts that ErrCancelled comes back promptly with a consistent
// result: transitions were counted, the per-rule counters sum to Steps, and
// the metrics registry was still assembled.
func TestCancelMidRun(t *testing.T) {
	cancel := make(chan struct{})
	done := make(chan Result, 1)
	go func() {
		res, err := RunProgram(infiniteLoop, Options{
			Variant:  Tail,
			Cancel:   cancel,
			MaxSteps: 1 << 30, // far beyond what the test allows to run
		})
		if err != nil {
			t.Errorf("parse: %v", err)
		}
		done <- res
	}()

	// Let the loop get going, then cancel and require a prompt return.
	time.Sleep(20 * time.Millisecond)
	close(cancel)
	var res Result
	select {
	case res = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return within 5s of cancellation")
	}

	if !errors.Is(res.Err, ErrCancelled) {
		t.Fatalf("Err = %v, want ErrCancelled", res.Err)
	}
	if res.Value != nil || res.Answer != "" {
		t.Errorf("cancelled run produced a value %v / answer %q", res.Value, res.Answer)
	}
	if res.Steps == 0 {
		t.Error("cancelled before the first transition; expected a running prefix")
	}
	if res.Metrics == nil {
		t.Fatal("Metrics not assembled for a cancelled run")
	}
	if got := res.Metrics.Counter(obs.MetricSteps); got != int64(res.Steps) {
		t.Errorf("metrics steps = %d, want %d", got, res.Steps)
	}
	if got := res.Metrics.SumCounters(obs.MetricRulePrefix); got != int64(res.Steps) {
		t.Errorf("per-rule counters sum to %d, want Steps = %d", got, res.Steps)
	}
}

// TestCancelBeforeFirstStep covers the already-cancelled channel: the poll
// at step 0 returns before any transition fires.
func TestCancelBeforeFirstStep(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	res, err := RunProgram(infiniteLoop, Options{Variant: Tail, Cancel: cancel})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !errors.Is(res.Err, ErrCancelled) {
		t.Fatalf("Err = %v, want ErrCancelled", res.Err)
	}
	if res.Steps != 0 {
		t.Errorf("Steps = %d, want 0", res.Steps)
	}
}

// TestNilCancelFinishes pins that runs without a Cancel channel are
// untouched by the new plumbing.
func TestNilCancelFinishes(t *testing.T) {
	res, err := RunProgram("(+ 1 2)", Options{Variant: Tail})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("Err = %v", res.Err)
	}
	if res.Answer != "3" {
		t.Fatalf("Answer = %q, want 3", res.Answer)
	}
}
