package core

import (
	"testing"

	"tailspace/internal/obs"
)

// TestTraceIDStampsEveryEvent: with Options.TraceID set, every event of
// the run — transitions, GCs, allocations, peaks — carries the trace ID,
// tying the engine stream to the serving request that started the run.
func TestTraceIDStampsEveryEvent(t *testing.T) {
	sink := &sliceSink{}
	res := measure(t, Tail, countdownLoop, 20, func(o *Options) {
		o.Events = sink
		o.TraceID = "req-42"
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	events := sink.events
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	kinds := map[obs.EventType]int{}
	for i, e := range events {
		if e.Trace != "req-42" {
			t.Fatalf("event %d (%s) has trace %q, want req-42", i, e.Type, e.Trace)
		}
		kinds[e.Type]++
	}
	if kinds[obs.EventTransition] == 0 || kinds[obs.EventGC] == 0 {
		t.Fatalf("event mix %v lacks transitions or GCs", kinds)
	}
}

// TestEmptyTraceIDLeavesEventsUnstamped: the default (no trace) emits
// events with an empty Trace field, byte-identical to pre-tracing JSONL.
func TestEmptyTraceIDLeavesEventsUnstamped(t *testing.T) {
	sink := &sliceSink{}
	res := measure(t, Tail, countdownLoop, 10, func(o *Options) { o.Events = sink })
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for i, e := range sink.events {
		if e.Trace != "" {
			t.Fatalf("event %d has unexpected trace %q", i, e.Trace)
		}
	}
}
