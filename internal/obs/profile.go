package obs

import "tailspace/internal/space"

// ProfileSink turns a run's event stream into its space profile: Row is
// called once per configuration, in step order, with that configuration's
// Step, Flat, Linked, Heap, Depth and Measured. Steps 1..N are the
// transition events themselves. The initial configuration has no
// transition event; its row is assembled from the peak events it raises at
// step 0, since each of its samples is a new maximum. Call End after each
// run: a run that stops before its first transition gets its initial row
// there.
type ProfileSink struct {
	Row func(Event)
	// first collects the initial row while open is set.
	first Event
	open  bool
}

// Emit implements Sink.
func (p *ProfileSink) Emit(e Event) {
	switch {
	case e.Type == EventPeak && e.Step == 0:
		p.open = true
		switch e.Peak {
		case space.PeakFlat.String():
			p.first.Flat, p.first.Measured = e.Value, true
		case space.PeakLinked.String():
			p.first.Linked = e.Value
		case space.PeakHeap.String():
			p.first.Heap = e.Value
		case space.PeakContDepth.String():
			p.first.Depth = e.Value
		}
	case e.Type == EventTransition:
		p.End()
		p.Row(e)
	}
}

// End delivers the initial row if no transition has delivered it yet. A
// nil sink does nothing.
func (p *ProfileSink) End() {
	if p == nil || !p.open {
		return
	}
	p.Row(p.first)
	p.first, p.open = Event{}, false
}
