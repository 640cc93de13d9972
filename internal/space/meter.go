package space

import (
	"tailspace/internal/env"
	"tailspace/internal/value"
)

// Meter prices configurations during a run. The Runner calls Attach once per
// run (before the first observation) and then Flat — and, unless the run is
// flat-only, Linked — on every transition.
//
// Two implementations exist. FullMeter recomputes Figure 7/8 space from
// scratch on every observation: O(configuration) per transition, kept as the
// oracle. DeltaMeter maintains both accounts incrementally through the
// store's alloc/write/delete hooks, a continuation memo (Figure 7) and
// reference counts (Figure 8), so a transition costs O(cells and frames
// touched). The two are differentially tested to agree on every
// observation over the whole corpus, under every cost model.
//
// A Meter instance carries per-run state and must not be shared between
// concurrent runs; the Runner builds a fresh one per run unless the caller
// supplies their own.
type Meter interface {
	// Attach prepares the meter to measure a run over st, resetting any
	// per-run state and installing whatever store hooks it needs.
	Attach(st *value.Store)
	// Flat is the Figure 7 (flat-environment) space of the configuration;
	// val is nil for expression configurations.
	Flat(val value.Value, rho env.Env, k value.Cont, st *value.Store) int
	// Linked is the Figure 8 (linked-environment) space of the configuration.
	Linked(val value.Value, rho env.Env, k value.Cont, st *value.Store) int
}

// FullMeter is the oracle: every observation recomputes the configuration
// space from scratch by walking the environment, the continuation, and the
// whole store. It holds no state, costs O(configuration) per transition, and
// exists to guard DeltaMeter — and any future meter — differentially.
type FullMeter struct {
	M Measurer
}

// NewFullMeter returns the from-scratch recomputation oracle under model
// (nil means WordModel).
func NewFullMeter(model CostModel) *FullMeter {
	return &FullMeter{M: NewMeasurer(model)}
}

// Attach is a no-op: the oracle keeps no per-run state.
func (f *FullMeter) Attach(*value.Store) {}

// Flat recomputes Figure 7 space with a full walk.
func (f *FullMeter) Flat(val value.Value, rho env.Env, k value.Cont, st *value.Store) int {
	return f.M.Flat(val, rho, k, st)
}

// Linked recomputes Figure 8 space with a full walk.
func (f *FullMeter) Linked(val value.Value, rho env.Env, k value.Cont, st *value.Store) int {
	return f.M.Linked(val, rho, k, st)
}

// deltaMemoLimit bounds the continuation memo. Continuation frames are
// immutable, so entries never go stale — the limit only bounds memory on
// very long runs. When it trips, the memo is rebuilt lazily along the live
// chain; peaks are unaffected. A rebuilt memo may grow to twice its rebuilt
// size, and never less than the limit, before the next reset, so a live
// chain deeper than the limit costs amortized O(1) per push instead of a
// re-walk on every push.
const deltaMemoLimit = 1 << 17

// DeltaMeter maintains the Figure 7 and Figure 8 accounts incrementally.
// Figure 7:
//
//   - the store term Σ (1 + space(σ(α))) is kept as a running total updated
//     through the StoreObserver hooks, so it is O(1) to read and O(cells
//     touched) to maintain;
//   - the continuation term space(κ) is memoized per frame: frames are
//     immutable and chain through Next(), so the cumulative space below any
//     frame is computed once, making the per-transition cost O(frames pushed
//     since the last observation) — amortized O(1);
//   - the environment term |Dom ρ| reads the rib-size account cached by
//     internal/env at construction.
//
// The running totals and the memo are Cost values — (unit words, pointer
// words) pairs — not collapsed integers. That makes the meter exact under
// LogModel, where the pointer width depends on the live-store size at
// observation time: the components are maintained incrementally (they are
// plain sums, so deltas are exact) and the width is applied only in Flat.
// No approximation or re-pricing epoch is needed; see DESIGN.md §12.
//
// Figure 8 (Linked) is a union of binding sets over the whole configuration.
// The meter keeps it as reference counts on ribs, continuation frames and
// (identifier, location) pairs, plus a running Cost; see linkedAccount. The
// account is built by the first Linked call, so flat-only runs never pay for
// it, and from then on the store hooks and each observation's register swap
// keep it exact: O(references gained or lost) per transition instead of a
// walk over the configuration. Its components are Costs too, collapsed at
// the pointer width only in Linked.
type DeltaMeter struct {
	M Measurer

	st       *value.Store
	total    Cost // Σ over α ∈ σ of (Cell + space(σ(α))), maintained via hooks
	contMemo map[value.Cont]Cost
	memoCap  int // contMemo is reset once it holds more entries than this
	scratch  []value.Cont
	linked   *linkedAccount // nil until the first Linked call
}

// NewDeltaMeter returns an incremental Figure 7/8 meter under model (nil
// means WordModel).
func NewDeltaMeter(model CostModel) *DeltaMeter {
	return &DeltaMeter{M: NewMeasurer(model)}
}

// Attach resets the meter's account to st's current contents and registers
// for its mutation hooks. Attaching to the store the meter already watches
// is a no-op.
func (d *DeltaMeter) Attach(st *value.Store) {
	if d.st == st {
		return
	}
	if d.st != nil {
		d.st.RemoveObserver(d)
	}
	d.st = st
	d.contMemo = make(map[value.Cont]Cost)
	d.memoCap = deltaMemoLimit
	d.total = Cost{}
	d.linked = nil
	cell := d.M.model().Cell()
	st.Each(func(_ env.Location, v value.Value) {
		d.total = d.total.Add(cell).Add(d.valueSpace(v))
	})
	st.AddObserver(d)
}

// StoreAlloc implements value.StoreObserver.
func (d *DeltaMeter) StoreAlloc(_ env.Location, v value.Value) {
	d.total = d.total.Add(d.M.model().Cell()).Add(d.valueSpace(v))
	if d.linked != nil {
		d.linked.storeAlloc(v)
	}
}

// StoreSet implements value.StoreObserver.
func (d *DeltaMeter) StoreSet(_ env.Location, old, v value.Value) {
	d.total = d.total.Add(d.valueSpace(v)).Sub(d.valueSpace(old))
	if d.linked != nil {
		d.linked.storeSet(old, v)
	}
}

// StoreDelete implements value.StoreObserver.
func (d *DeltaMeter) StoreDelete(_ env.Location, v value.Value) {
	d.total = d.total.Sub(d.M.model().Cell()).Sub(d.valueSpace(v))
	if d.linked != nil {
		d.linked.storeDelete(v)
	}
}

// Flat assembles Figure 7 space from the incremental accounts and collapses
// it at the model's pointer width for the live store. It must be
// bit-identical to FullMeter.Flat: same value pricing, same frame charges,
// same store sum — only the evaluation strategy differs.
func (d *DeltaMeter) Flat(val value.Value, rho env.Env, k value.Cont, st *value.Store) int {
	md := d.M.model()
	total := Cost{}.AddScaled(md.Binding(), rho.Size()).Add(d.contSpace(k)).Add(d.total)
	if val != nil {
		total = total.Add(d.valueSpace(val))
	}
	if st == nil {
		st = d.st
	}
	return total.At(d.M.PtrWidth(st))
}

// Linked reads Figure 8 space from the reference-counted account (see the
// type comment), building it on first use, and collapses it at the model's
// pointer width for the live store. It must be bit-identical to
// FullMeter.Linked. Like Flat, it reads the attached store's account; the
// account cannot be built before Attach, so that misuse panics.
func (d *DeltaMeter) Linked(val value.Value, rho env.Env, k value.Cont, st *value.Store) int {
	if d.linked == nil {
		if d.st == nil {
			panic("space: DeltaMeter.Linked called before Attach")
		}
		d.linked = newLinkedAccount(d.M.model(), d.st)
	}
	if st == nil {
		st = d.st
	}
	return d.linked.observe(val, rho, k).At(d.M.PtrWidth(st))
}

// valueSpace prices a value exactly as Measurer.Value, except that escape
// procedures, guarded or not, read the continuation memo instead of walking
// their retained frames.
func (d *DeltaMeter) valueSpace(v value.Value) Cost {
	c := d.M.model().Value(v)
	if esc, ok := heldEscape(v); ok {
		c = c.Add(d.contSpace(esc.K))
	}
	return c
}

// contSpace returns Figure 7's space(κ) from the memo, computing and caching
// the cumulative space of any unmemoized suffix. Frames are immutable, so a
// cached cumulative total never changes.
func (d *DeltaMeter) contSpace(k value.Cont) Cost {
	if k == nil {
		return Cost{}
	}
	if total, ok := d.contMemo[k]; ok {
		return total
	}
	rebuilt := len(d.contMemo) > d.memoCap
	if rebuilt {
		d.contMemo = make(map[value.Cont]Cost)
	}
	stack := d.scratch[:0]
	var base Cost
	for cur := k; cur != nil; cur = cur.Next() {
		if total, ok := d.contMemo[cur]; ok {
			base = total
			break
		}
		stack = append(stack, cur)
	}
	for i := len(stack) - 1; i >= 0; i-- {
		// Measurer.Frame is the oracle's per-frame charge too, so the two
		// meters cannot disagree on a frame.
		base = base.Add(d.M.Frame(stack[i]))
		d.contMemo[stack[i]] = base
	}
	d.scratch = stack[:0]
	if rebuilt {
		d.memoCap = max(2*len(d.contMemo), deltaMemoLimit)
	}
	return base
}
