package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tailspace/internal/env"
	"tailspace/internal/obs"
	"tailspace/internal/space"
	"tailspace/internal/value"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point. Spans of one op share a trace ID; Parent is the
// SpanID of the enclosing span (0 for the op itself).
type span struct {
	Trace  string
	ID     int
	Parent int
	Name   string
	Start  time.Time
	Dur    time.Duration
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	spans []span
	next  int
}

// start opens a span and returns its ID and a function that closes it.
func (t *tracer) start(trace string, parent int, name string) (int, func() time.Duration) {
	t.next++
	id := t.next
	begin := time.Now()
	return id, func() time.Duration {
		d := time.Since(begin)
		t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: begin, Dur: d})
		return d
	}
}

// add records a span measured elsewhere (a server span fetched from
// /v1/traces/{id}).
func (t *tracer) add(trace string, parent int, name string, start time.Time, dur time.Duration) {
	t.next++
	t.spans = append(t.spans, span{Trace: trace, ID: t.next, Parent: parent, Name: name, Start: start, Dur: dur})
}

// write exports the spans in the Chrome trace_event format of
// obs.WriteChromeTrace. That format has no parent field: nesting shows as
// time containment on the span thread.
func (t *tracer) write(dir, label string) (string, error) {
	if dir == "" {
		return "", nil
	}
	events := make([]obs.Event, len(t.spans))
	for i, s := range t.spans {
		us := s.Dur.Microseconds()
		if us < 1 {
			us = 1
		}
		events[i] = obs.Event{
			Type: obs.EventSpan, Trace: s.Trace, Span: s.Name, SpanID: s.ID,
			StartUS: s.Start.UnixMicro(), DurUS: us,
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, label+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	if err := obs.WriteChromeTrace(f, "perfbench "+label, events); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close trace: %w", err)
	}
	return path, nil
}

// timedMeter wraps the meter the runner would build for itself and times
// every Flat and Linked call. It is passed through core.Options.Meter, the
// runner's public seam for meters.
type timedMeter struct {
	inner                  space.Meter
	flatNS, linkedNS       int64
	flatCalls, linkedCalls int64
}

func newTimedMeter(model space.CostModel) *timedMeter {
	return &timedMeter{inner: space.NewDeltaMeter(model)}
}

func (m *timedMeter) Attach(st *value.Store) { m.inner.Attach(st) }

func (m *timedMeter) Flat(val value.Value, rho env.Env, k value.Cont, st *value.Store) int {
	t := time.Now()
	n := m.inner.Flat(val, rho, k, st)
	m.flatNS += int64(time.Since(t))
	m.flatCalls++
	return n
}

func (m *timedMeter) Linked(val value.Value, rho env.Env, k value.Cont, st *value.Store) int {
	t := time.Now()
	n := m.inner.Linked(val, rho, k, st)
	m.linkedNS += int64(time.Since(t))
	m.linkedCalls++
	return n
}

// timerCost is what one timed region adds to the time it reports: the part
// of two clock reads that falls inside the interval. The meter wrapper's
// per-call times are corrected by it.
func timerCost() time.Duration {
	const n = 200_000
	best := time.Duration(1 << 62)
	for r := 0; r < 5; r++ {
		var sum time.Duration
		for i := 0; i < n; i++ {
			t := time.Now()
			sum += time.Since(t)
		}
		if d := sum / n; d < best {
			best = d
		}
	}
	return best
}
