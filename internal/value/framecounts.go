package value

// FrameCounts keeps reference counts on continuation frames, the frame
// counterpart of env.RibCounts: a frame whose count leaves zero goes to gain
// and references its Next frame; one whose count returns to zero goes to
// lose and releases its Next frame; one whose count falls and stays
// positive goes to fell. Frames only refer to older frames, so the counts
// are exact. The collector's count account and the Figure 8 account both
// count frames this way; their hooks add or take away what a frame holds,
// which may acquire or release further frames (an escape the frame holds).
//
// Cascades run on one explicit stack, never by recursion: releasing the
// last reference to a 10^5-frame continuation walks it in one loop, and a
// hook that acquires or releases a frame while a cascade runs the same way
// only stacks the frame for that cascade. A FrameCounts is not safe for
// concurrent use.
type FrameCounts struct {
	counts           map[Cont]int32
	work             []Cont
	delta            int32 // the way the running cascade moves counts, or 0
	gain, lose, fell func(Cont)
}

// NewFrameCounts returns an empty account with the given hooks; fell may
// be nil.
func NewFrameCounts(gain, lose, fell func(Cont)) *FrameCounts {
	return &FrameCounts{counts: make(map[Cont]int32), gain: gain, lose: lose, fell: fell}
}

// Tracked is the number of frames currently referenced.
func (c *FrameCounts) Tracked() int { return len(c.counts) }

// Reset forgets every count without calling a hook, keeping the table's
// memory for reuse and dropping the frames the stack still points at.
func (c *FrameCounts) Reset() {
	clear(c.counts)
	clear(c.work[:cap(c.work)])
	c.work, c.delta = c.work[:0], 0
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
		switch n := c.counts[k] + delta; {
		case n < 0:
			panic("value: Release of a frame that was never acquired")
		case n == 0:
			delete(c.counts, k)
			c.lose(k)
		case n == 1 && delta > 0:
			c.counts[k] = n
			c.gain(k)
		default:
			c.counts[k] = n
			if delta < 0 && c.fell != nil {
				c.fell(k)
			}
			continue
		}
		c.work = append(c.work, k.Next())
	}
	c.delta = outer
}
