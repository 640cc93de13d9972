package value

// FrameSlot names one of the two count handles every frame carries, so the
// two accounts that count frames can both count the same frame, each in a
// table of its own.
type FrameSlot uint8

const (
	// CollectorSlot is the slot of the collector's count account
	// (Store.Reclaim).
	CollectorSlot FrameSlot = iota
	// MeterSlot is the slot of the Figure 8 account (space.DeltaMeter).
	MeterSlot

	numFrameSlots
)

// FrameCounts keeps reference counts on continuation frames, the frame
// counterpart of env.RibCounts: a frame whose count leaves zero goes to gain
// and references its Next frame; one whose count returns to zero goes to
// lose and releases its Next frame; one whose count falls and stays
// positive goes to fell. Frames only refer to older frames, so the counts
// are exact. The collector's count account and the Figure 8 account both
// count frames this way; their hooks add or take away what a frame holds,
// which may acquire or release further frames (an escape the frame holds).
//
// The counts sit in a dense table of {frame, count} entries with a free
// list, and a frame's handle on the account's slot is the index of its
// entry, so finding a count costs a field read and a comparison. An entry
// counts for a frame only while it points back at that frame's handles: a
// handle another table wrote, or one this table wrote before a Reset, reads
// as unheld, and nothing ever walks frames to clear handles. So at most one
// account per slot may count a given frame at a time. Halt, a value with no
// handle, has a count of its own; all halts are one frame.
//
// Cascades run on one explicit stack, never by recursion: releasing the
// last reference to a 10^5-frame continuation walks it in one loop, and a
// hook that acquires or releases a frame while a cascade runs the same way
// only stacks the frame for that cascade. A FrameCounts is not safe for
// concurrent use.
type FrameCounts struct {
	slot    FrameSlot
	entries []frameEntry
	free    []uint32 // indices of the entries that count no frame
	halt    int32
	work    []Cont
	delta   int32 // the way the running cascade moves counts, or 0

	gain, lose, fell func(Cont)
}

// frameEntry is one frame's count; frame is nil while the entry is free.
type frameEntry struct {
	frame *frameHandles
	count int32
}

// NewFrameCounts returns an empty account that keeps its handles on slot,
// with the given hooks; fell may be nil.
func NewFrameCounts(slot FrameSlot, gain, lose, fell func(Cont)) *FrameCounts {
	return &FrameCounts{slot: slot, gain: gain, lose: lose, fell: fell}
}

// Tracked is the number of frames currently referenced.
func (c *FrameCounts) Tracked() int {
	n := len(c.entries) - len(c.free)
	if c.halt > 0 {
		n++
	}
	return n
}

// Reset forgets every count without calling a hook, keeping the table's
// memory for reuse and dropping the frames the table and the stack still
// point at. Every handle the table wrote reads as unheld afterwards.
func (c *FrameCounts) Reset() {
	clear(c.entries)
	clear(c.work[:cap(c.work)])
	c.entries, c.free, c.work = c.entries[:0], c.free[:0], c.work[:0]
	c.halt, c.delta = 0, 0
}

// Acquire adds one reference to k, which may be nil. Its cost is O(1) plus
// the frames that were not referenced before.
func (c *FrameCounts) Acquire(k Cont) { c.cascade(k, 1) }

// Release drops one reference to k, which must be referenced unless nil.
func (c *FrameCounts) Release(k Cont) { c.cascade(k, -1) }

// cascade adds delta (±1) to k's count, and to the count of each frame the
// hooks and Next references move in turn.
func (c *FrameCounts) cascade(k Cont, delta int32) {
	c.work = append(c.work, k)
	if c.delta == delta {
		return
	}
	outer, base := c.delta, len(c.work)-1
	c.delta = delta
	for len(c.work) > base {
		k := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		if k == nil {
			continue
		}
		switch n := c.add(k, delta); {
		case n == 0:
			c.lose(k)
		case n == 1 && delta > 0:
			c.gain(k)
		default:
			if delta < 0 && c.fell != nil {
				c.fell(k)
			}
			continue
		}
		c.work = append(c.work, k.Next())
	}
	c.delta = outer
}

// add adds delta to k's count and returns the new count. A frame with no
// entry gets one when its count leaves zero and gives it back when its count
// returns to zero.
func (c *FrameCounts) add(k Cont, delta int32) int32 {
	h := k.handles()
	if h == nil {
		c.halt += delta
		if c.halt < 0 {
			panic("value: Release of a frame that was never acquired")
		}
		return c.halt
	}
	i := h[c.slot]
	if int(i) >= len(c.entries) || c.entries[i].frame != h {
		if delta < 0 {
			panic("value: Release of a frame that was never acquired")
		}
		if n := len(c.free); n > 0 {
			i, c.free = c.free[n-1], c.free[:n-1]
		} else {
			i = uint32(len(c.entries))
			c.entries = append(c.entries, frameEntry{})
		}
		c.entries[i].frame = h
		h[c.slot] = i
	}
	e := &c.entries[i]
	e.count += delta
	if e.count == 0 {
		e.frame = nil
		c.free = append(c.free, i)
	}
	return e.count
}
