package space

import (
	"sync"

	"tailspace/internal/env"
	"tailspace/internal/value"
)

// linkedAccount is DeltaMeter's incremental Figure 8 account. Linked space
// splits into parts that are each a plain sum over the configuration:
//
//   - every live store cell: Cell plus its value's linked charge (closures
//     and escapes one word, contracts their shells);
//   - the value register's linked charge;
//   - every continuation frame reachable from the roots, once: κ, the frames
//     escapes retain (in the value register, in cells, held in frames), and
//     their successors;
//   - Binding × the number of distinct (identifier, location) pairs bound by
//     the environments reachable from the roots: ρ, saved environments of
//     reachable frames, and closure environments in the register, in cells
//     and held in frames.
//
// The account keeps the first and third parts as one running Cost and the
// binding union as an env.BindingCounts. Frames are counted by a
// value.FrameCounts on value.MeterSlot, so a count is found through the
// frame's own handle, not a map: a frame gains a reference from each root,
// from its predecessor and from each escape that retains it, and adds its
// charge and its own references while its count is positive. Frames, ribs and values
// are immutable and only refer to older objects, so the counts are exact.
// Store cells are the one mutable root; they arrive through DeltaMeter's
// store hooks. The registers (value, ρ, κ) are swapped on every
// observation, acquiring the new ones before releasing the old, so
// structure the two share does not leave and re-enter the account.
type linkedAccount struct {
	md       CostModel
	bindings *env.BindingCounts
	frames   *value.FrameCounts
	cost     Cost

	// gain and lose price values and frames through the oracle's linkedRefs
	// and acquire or release the environments and frames they reach. A
	// value's own charge is the one a cell or the value register pays; a
	// frame holding it pays a reference word instead.
	gain, lose linkedRefs

	// The registers of the last observation, referenced until the next.
	val value.Value
	rho env.Env
	k   value.Cont
}

// linkedPool keeps released accounts' tables, so a run does not allocate
// them afresh.
var linkedPool sync.Pool

// newLinkedAccount builds the account for the live contents of st; the
// registers join at the first observation. Its tables come from the pool
// when a finished run left some there.
func newLinkedAccount(md CostModel, st *value.Store) *linkedAccount {
	a, _ := linkedPool.Get().(*linkedAccount)
	if a == nil {
		a = &linkedAccount{bindings: env.NewBindingCounts()}
		// Every charge is computed into a local before a.cost is read:
		// pricing a value runs the cascades of the frames it reaches, and
		// these hooks move a.cost.
		a.frames = value.NewFrameCounts(value.MeterSlot,
			func(k value.Cont) { c := a.gain.frame(k); a.cost = a.cost.Add(c) },
			func(k value.Cont) { c := a.lose.frame(k); a.cost = a.cost.Sub(c) },
			nil)
		a.gain = linkedRefs{onEnv: a.bindings.Acquire, onCont: a.frames.Acquire}
		a.lose = linkedRefs{onEnv: a.bindings.Release, onCont: a.frames.Release}
	}
	a.md, a.gain.md, a.lose.md = md, md, md
	st.Each(func(_ env.Location, v value.Value) { a.storeAlloc(v) })
	return a
}

// release empties the account into the pool.
func (a *linkedAccount) release() {
	a.bindings.Reset()
	a.frames.Reset()
	a.cost = Cost{}
	a.val, a.rho, a.k = nil, env.Env{}, nil
	linkedPool.Put(a)
}

// observe moves the register references to the configuration (val, rho, k)
// and returns its linked space as a Cost, before the pointer width is
// applied.
func (a *linkedAccount) observe(val value.Value, rho env.Env, k value.Cont) Cost {
	var valCost Cost
	if val != nil {
		valCost = a.gain.value(val)
	}
	if rho != a.rho {
		a.bindings.Acquire(rho)
	}
	if k != a.k {
		a.frames.Acquire(k)
	}
	if a.val != nil {
		a.lose.value(a.val)
	}
	if rho != a.rho {
		a.bindings.Release(a.rho)
	}
	if k != a.k {
		a.frames.Release(a.k)
	}
	a.val, a.rho, a.k = val, rho, k
	return a.cost.Add(valCost).AddScaled(a.md.Binding(), a.bindings.Len())
}

// storeAlloc accounts a new cell holding v.
func (a *linkedAccount) storeAlloc(v value.Value) {
	c := a.gain.value(v)
	a.cost = a.cost.Add(a.md.Cell()).Add(c)
}

// storeSet accounts a cell's value replaced by v.
func (a *linkedAccount) storeSet(old, v value.Value) {
	c := a.gain.value(v)
	c = c.Sub(a.lose.value(old))
	a.cost = a.cost.Add(c)
}

// storeDelete accounts the removal of a cell holding v.
func (a *linkedAccount) storeDelete(v value.Value) {
	c := a.lose.value(v)
	a.cost = a.cost.Sub(a.md.Cell()).Sub(c)
}
