package obs

import (
	"reflect"
	"testing"
)

// TestProfileSinkRows feeds ProfileSink two runs' worth of events: one that
// takes two transitions, and one that stops before its first. Each gets
// its initial row from its step-0 peak events; later peaks, GC and
// allocation events add no row.
func TestProfileSinkRows(t *testing.T) {
	var rows []Event
	p := &ProfileSink{Row: func(e Event) { rows = append(rows, e) }}
	peak := func(kind string, v int) Event { return Event{Type: EventPeak, Peak: kind, Value: v} }
	for _, e := range []Event{
		peak("heap", 95), peak("depth", 1), peak("flat", 287), peak("linked", 280),
		{Type: EventAlloc, Step: 1, Loc: 96},
		{Type: EventPeak, Step: 1, Peak: "flat", Value: 290},
		{Type: EventTransition, Step: 1, Flat: 290, Linked: 281, Heap: 96, Depth: 2, Measured: true},
		{Type: EventGC, Step: 2, Reclaimed: 1, Heap: 95},
		{Type: EventTransition, Step: 2, Flat: 288, Linked: 280, Heap: 95, Depth: 1, Measured: true},
	} {
		p.Emit(e)
	}
	p.End()
	p.Emit(peak("heap", 95))
	p.Emit(peak("depth", 1))
	p.End()
	p.End()
	want := []Event{
		{Flat: 287, Linked: 280, Heap: 95, Depth: 1, Measured: true},
		{Type: EventTransition, Step: 1, Flat: 290, Linked: 281, Heap: 96, Depth: 2, Measured: true},
		{Type: EventTransition, Step: 2, Flat: 288, Linked: 280, Heap: 95, Depth: 1, Measured: true},
		{Heap: 95, Depth: 1},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows:\n%+v\nwant:\n%+v", rows, want)
	}
	var none *ProfileSink
	none.End()
}
