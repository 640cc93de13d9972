package core

import (
	"fmt"
	"sort"
	"testing"

	"tailspace/internal/corpus"
	"tailspace/internal/obs"
	"tailspace/internal/space"
)

// sliceSink records every emitted event in order, so two runs can be compared
// observation-for-observation.
type sliceSink struct{ events []obs.Event }

func (s *sliceSink) Emit(e obs.Event) { s.events = append(s.events, e) }

// TestArenaStoreMatchesMapStoreOnCorpus is the differential suite for the
// memory-subsystem rewrite: every corpus program, under every reference
// implementation, with both meter implementations, run once on the arena
// store and once on the map-backed reference store. The two runs must agree
// on everything observable — answer, step count, flat/linked/heap peaks,
// collection totals, the whole metrics registry, and the complete event
// stream (transitions, GC applications with reclaim counts, allocations with
// their locations, and peak updates). The arena, the counting collector
// (which the map store's tracing checks here) and the interned environments
// are throughput changes only; any semantic drift shows up here as a
// first-divergence diff.
func TestArenaStoreMatchesMapStoreOnCorpus(t *testing.T) {
	maxSteps := 1_200
	if testing.Short() {
		maxSteps = 500
	}
	meters := []struct {
		name string
		mk   func() space.Meter
	}{
		{"delta", func() space.Meter { return space.NewDeltaMeter(space.Fixnum) }},
		{"full", func() space.Meter { return space.NewFullMeter(space.Fixnum) }},
	}
	for _, v := range Variants {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			t.Parallel()
			for _, meter := range meters {
				for _, p := range corpus.All() {
					run := func(mapStore bool) (Result, []obs.Event) {
						sink := &sliceSink{}
						res, err := RunProgram(p.Source, Options{
							Variant: v, Measure: true, GCEvery: 1,
							MaxSteps: maxSteps, CostModel: space.Fixnum,
							MapStore: mapStore, Events: sink,
							Meter: meter.mk(),
						})
						if err != nil {
							t.Fatalf("%s [%s/%s] mapStore=%v: %v", p.Name, v, meter.name, mapStore, err)
						}
						return res, sink.events
					}
					arena, arenaEvents := run(false)
					ref, refEvents := run(true)
					if arena.Store.IsMapBacked() || !ref.Store.IsMapBacked() {
						t.Fatalf("%s: store representations not as requested", p.Name)
					}
					if diff := diffStoreRuns(arena, ref); diff != "" {
						t.Errorf("%s [%s/%s]: arena vs map store: %s", p.Name, v, meter.name, diff)
					}
					if diff := diffEventStreams(arenaEvents, refEvents); diff != "" {
						t.Errorf("%s [%s/%s]: event streams diverge: %s", p.Name, v, meter.name, diff)
					}
				}
			}
		})
	}
}

// diffStoreRuns extends diffResults (answers, steps, peaks) with the GC
// totals and the full metrics registry.
func diffStoreRuns(arena, ref Result) string {
	if diff := diffResults(arena, ref); diff != "" {
		return diff
	}
	if arena.PeakContDepth != ref.PeakContDepth {
		return fmt.Sprintf("PeakContDepth arena=%d map=%d", arena.PeakContDepth, ref.PeakContDepth)
	}
	if arena.Collections != ref.Collections {
		return fmt.Sprintf("Collections arena=%d map=%d", arena.Collections, ref.Collections)
	}
	if arena.Collected != ref.Collected {
		return fmt.Sprintf("Collected arena=%d map=%d", arena.Collected, ref.Collected)
	}
	a, b := arena.Metrics.Snapshot(), ref.Metrics.Snapshot()
	names := make([]string, 0, len(a)+len(b))
	for k := range a {
		names = append(names, k)
	}
	for k := range b {
		if _, dup := a[k]; !dup {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		if a[k] != b[k] {
			return fmt.Sprintf("metric %s arena=%d map=%d", k, a[k], b[k])
		}
	}
	return ""
}

// diffEventStreams reports the first index where the two observation streams
// disagree. Store representation must be invisible to observers, so the
// streams are required to be identical element-for-element.
func diffEventStreams(arena, ref []obs.Event) string {
	n := len(arena)
	if len(ref) < n {
		n = len(ref)
	}
	for i := 0; i < n; i++ {
		if arena[i] != ref[i] {
			return fmt.Sprintf("event %d: arena=%+v map=%+v", i, arena[i], ref[i])
		}
	}
	if len(arena) != len(ref) {
		return fmt.Sprintf("length arena=%d map=%d", len(arena), len(ref))
	}
	return ""
}
