package core

import (
	"errors"
	"testing"

	"tailspace/internal/obs"
)

// --- Options.GCEvery contract -------------------------------------------

func TestMeasureWithGCOffIsAnError(t *testing.T) {
	res, err := RunApplication(countdownLoop, numInput(10), Options{
		Variant: Tail, Measure: true, GCEvery: GCEveryOff,
	})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !errors.Is(res.Err, ErrMeasureNeedsGC) {
		t.Fatalf("res.Err = %v, want ErrMeasureNeedsGC", res.Err)
	}
	if res.Steps != 0 || res.PeakFlat != 0 {
		t.Fatalf("rejected run still executed: steps=%d peak=%d", res.Steps, res.PeakFlat)
	}
}

func TestGCEveryZeroWithoutMeasureNeverCollects(t *testing.T) {
	res, err := RunApplication(countdownLoop, numInput(50), Options{Variant: Tail})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Collections != 0 {
		t.Fatalf("GCEvery=0 without Measure collected %d times", res.Collections)
	}
}

func TestGCEveryOffWithoutMeasureNeverCollects(t *testing.T) {
	res, err := RunApplication(countdownLoop, numInput(50), Options{
		Variant: Tail, GCEvery: GCEveryOff,
	})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Collections != 0 {
		t.Fatalf("GCEveryOff collected %d times", res.Collections)
	}
}

func TestGCEveryZeroWithMeasureDefaultsToEveryStep(t *testing.T) {
	// Definition 21's space-efficient computations: Measure with the default
	// GCEvery must behave exactly like an explicit collect-every-step run.
	def := measure(t, Tail, countdownLoop, 50, flatOnly, func(o *Options) { o.GCEvery = 0 })
	if def.Err != nil {
		t.Fatal(def.Err)
	}
	everyStep := measure(t, Tail, countdownLoop, 50, flatOnly)
	if def.Collections == 0 || def.Collected == 0 {
		t.Fatalf("default policy never collected (collections=%d)", def.Collections)
	}
	if def.Collections != everyStep.Collections || def.Collected != everyStep.Collected ||
		def.PeakFlat != everyStep.PeakFlat {
		t.Fatalf("default policy differs from GCEvery=1: {%d %d %d} vs {%d %d %d}",
			def.Collections, def.Collected, def.PeakFlat,
			everyStep.Collections, everyStep.Collected, everyStep.PeakFlat)
	}
}

// --- The transition events as a space profile --------------------------

// collectProfile runs countdown(n) under Z_tail and returns the run and the
// space profile its event stream carries: one sample per configuration,
// the initial one and one per transition.
func collectProfile(t *testing.T, n int, tweak ...func(*Options)) (Result, []obs.Event) {
	t.Helper()
	var prof []obs.Event
	sink := &obs.ProfileSink{Row: func(e obs.Event) { prof = append(prof, e) }}
	opts := append([]func(*Options){func(o *Options) { o.Events = sink }}, tweak...)
	res := measure(t, Tail, countdownLoop, n, opts...)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	sink.End()
	return res, prof
}

func TestTraceCoversEveryStepInOrder(t *testing.T) {
	res, prof := collectProfile(t, 25)
	// One sample per configuration: the initial one plus one per transition.
	if len(prof) != res.Steps+1 {
		t.Fatalf("len(profile) = %d, want Steps+1 = %d", len(prof), res.Steps+1)
	}
	for i, p := range prof {
		if p.Step != i {
			t.Fatalf("profile[%d].Step = %d: samples out of order", i, p.Step)
		}
		if !p.Measured {
			t.Fatalf("profile[%d].Measured = false on a Measure run", i)
		}
		if p.Flat <= 0 {
			t.Fatalf("profile[%d].Flat = %d, want positive", i, p.Flat)
		}
		if p.Linked <= 0 || p.Linked > p.Flat {
			t.Fatalf("profile[%d]: Linked = %d, Flat = %d, want 0 < Linked <= Flat", i, p.Linked, p.Flat)
		}
	}
	// Samples already include |P|, so the recorded peak is exactly the max
	// over the profile.
	peak := 0
	for _, p := range prof {
		if p.Flat > peak {
			peak = p.Flat
		}
	}
	if res.PeakFlat != peak {
		t.Fatalf("PeakFlat = %d, want max(profile.Flat) = %d", res.PeakFlat, peak)
	}
}

func TestTraceStepNumberingWithSparseGC(t *testing.T) {
	// GCEvery > 1 changes when the GC rule runs, not which configurations
	// are sampled: numbering must stay dense.
	res, prof := collectProfile(t, 25, func(o *Options) { o.GCEvery = 7 })
	if len(prof) != res.Steps+1 {
		t.Fatalf("len(profile) = %d, want %d", len(prof), res.Steps+1)
	}
	for i, p := range prof {
		if p.Step != i {
			t.Fatalf("profile[%d].Step = %d with GCEvery=7", i, p.Step)
		}
	}
	if res.Collections >= res.Steps {
		t.Fatalf("GCEvery=7 collected %d times over %d steps", res.Collections, res.Steps)
	}
}

func TestTraceFlatOnlyLeavesLinkedZero(t *testing.T) {
	_, prof := collectProfile(t, 25, flatOnly)
	for i, p := range prof {
		if p.Linked != 0 {
			t.Fatalf("profile[%d].Linked = %d under FlatOnly, want 0", i, p.Linked)
		}
		if p.Flat <= 0 {
			t.Fatalf("profile[%d].Flat = %d under FlatOnly, want positive", i, p.Flat)
		}
	}
}

func TestTraceWithoutMeasureSamplesHeapOnly(t *testing.T) {
	// Transition events still carry the heap and depth without Measure — a
	// heap/depth profile is cheap — but the Figure 7/8 fields stay zero.
	// (TestTransitionEventsMatchSteps pins their count, order and Measured.)
	var prof []obs.Event
	sink := &obs.ProfileSink{Row: func(e obs.Event) { prof = append(prof, e) }}
	res, err := RunApplication(countdownLoop, numInput(10), Options{Variant: Tail, Events: sink})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	sink.End()
	if len(prof) != res.Steps+1 {
		t.Fatalf("len(profile) = %d, want %d", len(prof), res.Steps+1)
	}
	for i, p := range prof {
		if p.Measured || p.Flat != 0 || p.Linked != 0 {
			t.Fatalf("profile[%d] measured space without Measure: flat=%d linked=%d", i, p.Flat, p.Linked)
		}
		if p.Heap <= 0 || p.Depth <= 0 {
			t.Fatalf("profile[%d]: heap=%d depth=%d, want positive (globals are live)", i, p.Heap, p.Depth)
		}
	}
}
