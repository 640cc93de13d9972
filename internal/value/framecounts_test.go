package value

import (
	"runtime/debug"
	"slices"
	"testing"
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
	c = NewFrameCounts(
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
