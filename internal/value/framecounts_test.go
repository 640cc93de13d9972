package value

import (
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"
)

// TestFrameCountsCascades pins FrameCounts' hooks: a frame goes to gain when
// its count leaves zero and to lose when it returns to zero, its Next frame
// moving with it, and to fell when its count falls and stays positive.
// Frames the hooks acquire or release (here, the continuation of an escape
// a call frame holds) cascade the same way before Acquire or Release
// returns.
func TestFrameCountsCascades(t *testing.T) {
	var gained, lost, fell []Cont
	var c *FrameCounts
	escapes := func(k Cont, f func(Cont)) {
		for _, v := range k.Parts().Vals {
			f(v.(Escape).K)
		}
	}
	c = NewFrameCounts(MeterSlot,
		func(k Cont) { gained = append(gained, k); escapes(k, c.Acquire) },
		func(k Cont) { lost = append(lost, k); escapes(k, c.Release) },
		func(k Cont) { fell = append(fell, k) })

	halt := Halt{}
	inner := &Select{K: &Select{K: halt}}
	mid := &Select{K: halt}
	top := &Call{Args: []Value{Escape{K: inner}}, K: mid}
	// check compares the frames a hook received, in any order.
	check := func(what string, got, want []Cont) {
		t.Helper()
		if len(got) != len(want) || slices.ContainsFunc(want, func(k Cont) bool { return !slices.Contains(got, k) }) {
			t.Errorf("%s: %v, want %v", what, got, want)
		}
	}

	c.Acquire(nil)
	c.Acquire(mid)
	check("gained after Acquire(mid)", gained, []Cont{mid, halt})
	c.Acquire(top)
	check("gained after Acquire(top)", gained, []Cont{mid, halt, top, inner, inner.K})
	if got := c.Tracked(); got != 5 {
		t.Errorf("Tracked = %d, want 5", got)
	}

	c.Release(mid)
	check("fell after Release(mid)", fell, []Cont{mid})
	check("lost after Release(mid)", lost, nil)
	c.Release(top)
	check("lost after Release(top)", lost, []Cont{top, inner, inner.K, mid, halt})
	check("fell after Release(top)", fell, []Cont{mid, halt}) // halt was held twice
	if got := c.Tracked(); got != 0 {
		t.Errorf("Tracked = %d after every release, want 0", got)
	}

	// A chain linked only through the escapes its frames hold, as deep as
	// a long recursion: every frame enters and leaves in one call each,
	// within a 1 MiB stack, which a cascade recursing through the hooks
	// overflows.
	const depth = 100_000
	var chain Cont = halt
	for range depth {
		chain = &Call{Args: []Value{Escape{K: &Select{K: chain}}}}
	}
	gained, lost = nil, nil
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	c.Acquire(chain)
	if len(gained) != 2*depth+1 || c.Tracked() != 2*depth+1 {
		t.Errorf("deep chain: %d gained, %d tracked, want %d", len(gained), c.Tracked(), 2*depth+1)
	}
	c.Release(chain)
	if len(lost) != 2*depth+1 || c.Tracked() != 0 {
		t.Errorf("deep chain: %d lost, %d tracked, want %d and 0", len(lost), c.Tracked(), 2*depth+1)
	}

	defer func() {
		if recover() == nil {
			t.Error("Release of a frame never acquired did not panic")
		}
	}()
	c.Release(top)
}

// TestFrameCountsHandleRule pins what a frame's handle may and may not
// claim. A handle names a table entry, and the entry counts for the frame
// only while it points back at it: after Reset a frame the account held is
// unheld, a WithNext copy of a held frame is unheld (it copies the handles
// too), and accounts on the two slots count the same frames without
// disturbing each other. A frame is unheld when acquiring it gains it;
// releasing an unheld frame panics.
func TestFrameCountsHandleRule(t *testing.T) {
	var gained []Cont
	count := func(slot FrameSlot) *FrameCounts {
		return NewFrameCounts(slot,
			func(k Cont) { gained = append(gained, k) },
			func(Cont) {}, nil)
	}
	// releasePanics fails unless releasing k from c panics. A release that
	// panics leaves c unusable, so each call ends with that account.
	releasePanics := func(what string, c *FrameCounts, k Cont) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Release of an unheld frame did not panic", what)
			}
		}()
		c.Release(k)
	}

	halt := Halt{}
	low := &Select{K: halt}
	top := &Call{K: low}
	c := count(CollectorSlot)
	c.Acquire(top)
	c.Reset()
	if got := c.Tracked(); got != 0 {
		t.Errorf("Tracked = %d after Reset, want 0", got)
	}
	gained = nil
	c.Acquire(top)
	check := func(what string, want ...Cont) {
		t.Helper()
		if !slices.Equal(gained, want) {
			t.Errorf("%s gained %v, want %v", what, gained, want)
		}
		gained = nil
	}
	check("Acquire after Reset", top, low, halt)

	copied := top.WithNext(low)
	c.Acquire(copied)
	check("Acquire of a WithNext copy of a held frame", copied)
	if got := c.Tracked(); got != 4 {
		t.Errorf("Tracked = %d with the copy, want 4", got)
	}
	c.Release(copied)
	c.Release(top) // the original is still held once, and held only once
	releasePanics("a frame released as often as acquired", c, top)

	// Two accounts on the two slots hold top independently: releasing it
	// from one leaves the other's count alone, and each gains it once.
	c, m := count(CollectorSlot), count(MeterSlot)
	c.Acquire(top)
	m.Acquire(top)
	check("Acquire on both slots", top, low, halt, top, low, halt)
	m.Acquire(low)
	c.Release(top)
	if got := m.Tracked(); got != 3 {
		t.Errorf("meter Tracked = %d after the collector's release, want 3", got)
	}
	c.Acquire(top)
	check("collector re-Acquire", top, low, halt)
	m.Release(top)
	m.Release(low)
	if got := m.Tracked(); got != 0 {
		t.Errorf("meter Tracked = %d after its releases, want 0", got)
	}
	releasePanics("meter after its releases", m, low)
	releasePanics("halt, never acquired", count(MeterSlot), halt)
	releasePanics("a WithNext copy of a held frame", c, top.WithNext(low))
}

// TestHotFramesFitTheirSizeClasses pins the three frames a run allocates
// most of (push, call and select frames are about 38% of the bytes an
// answer-only corpus run allocates) to the Go size classes they had before
// frames carried count handles, so the handles cost them no allocation.
func TestHotFramesFitTheirSizeClasses(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size classes checked on 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"Push", unsafe.Sizeof(Push{}), 48},
		{"Call", unsafe.Sizeof(Call{}), 48},
		{"Select", unsafe.Sizeof(Select{}), 64},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.size, c.max)
		}
	}
}
