package space

import (
	"tailspace/internal/env"
	"tailspace/internal/value"
)

// This file implements the linked-environment accounting of Figure 8: each
// binding (an identifier paired with a location) is counted once per
// configuration, no matter how many environments contain it. The bindings
// reachable from the configuration — through the environment register, the
// continuation's saved environments, and the closures and escapes held in
// continuations and in the store — form one global set whose cardinality is
// charged once (at the model's Binding price); every other component is
// charged as in Figure 7 minus its |Dom ρ| terms, and closures cost a
// single word.

// binding is one element of graph(ρ): an (identifier, location) pair keyed
// by interned identifier, so the set's cardinality is the number of distinct
// (spelling, location) pairs (interning is injective on spellings).
type binding struct {
	sym env.Symbol
	loc env.Location
}

// linkedRefs prices values and frames under Figure 8 and hands over the
// references they hold: onEnv receives every closure or saved environment,
// onCont every continuation an escape retains. The oracle's walk
// (linkedWalker) and DeltaMeter's account (linkedAccount) both price through
// it, so the two can never disagree on per-value or per-frame pricing.
type linkedRefs struct {
	md     CostModel
	onEnv  func(env.Env)
	onCont func(value.Cont)
}

// value is v's own linked charge, the one a store cell or the value register
// pays: like Figure 7 but closures and escapes cost one word (their bindings
// enter the global set and their retained frames the frame account), and
// contracts pay for their components.
func (r linkedRefs) value(v value.Value) Cost {
	switch x := v.(type) {
	case value.Closure:
		r.onEnv(x.Env)
		return Cost{Units: 1}
	case value.Escape:
		r.onCont(x.K)
		return Cost{Units: 1}
	case *value.ArrowContract:
		c := Cost{Units: 1, Ptrs: 1 + len(x.Dom)}
		for _, d := range x.Dom {
			c = c.Add(r.value(d))
		}
		return c.Add(r.value(x.Cod))
	case value.Guarded:
		return Cost{Units: 1, Ptrs: 2}.Add(r.value(x.Proc)).Add(r.value(x.Ctc))
	default:
		return r.md.Value(v)
	}
}

// frame is frame k's linked charge: its Figure 7 charge without the
// |Dom ρ| bindings of its saved environment, which joins the global set
// through onEnv instead. The values and checks the frame holds are passed
// through value for their references only; the frame already pays one
// reference word for each.
func (r linkedRefs) frame(k value.Cont) Cost {
	p := k.Parts()
	if !p.Env.IsEmpty() {
		r.onEnv(p.Env)
	}
	if p.Val != nil {
		r.value(p.Val)
	}
	for _, v := range p.Vals {
		r.value(v)
	}
	for _, c := range p.Checks {
		r.value(c.Ctc)
		r.value(c.Src)
	}
	return frameCost(p)
}

// linkedWalker accumulates the global binding set while measuring. The same
// environment reaches addEnv many times per configuration (each frame's saved
// ρ, every closure in the store and in Done lists), and distinct environments
// share rib suffixes, so two exact dedup layers keep the walk near-linear:
// seenEnv skips environments already folded in (equal Envs share one rib
// chain, hence bind identically), and ribs skips shared shadow-free suffixes
// across different environments. Neither changes the resulting set — they
// only elide duplicate inserts.
type linkedWalker struct {
	refs     linkedRefs
	bindings map[binding]struct{}
	seenEnv  map[env.Env]bool
	ribs     *env.RibSet
	seenCont map[value.Cont]bool
	pending  []value.Cont
}

func newLinkedWalker(md CostModel) *linkedWalker {
	w := &linkedWalker{
		bindings: make(map[binding]struct{}),
		seenEnv:  make(map[env.Env]bool),
		ribs:     env.NewRibSet(),
		seenCont: make(map[value.Cont]bool),
	}
	w.refs = linkedRefs{md: md, onEnv: w.addEnv, onCont: w.push}
	return w
}

func (w *linkedWalker) addEnv(e env.Env) {
	if w.seenEnv[e] {
		return
	}
	w.seenEnv[e] = true
	e.EachSymShared(w.ribs, func(s env.Symbol, loc env.Location) {
		w.bindings[binding{sym: s, loc: loc}] = struct{}{}
	})
}

func (w *linkedWalker) push(k value.Cont) { w.pending = append(w.pending, k) }

// valueSpace is the linked space of a value: its own charge plus the frames
// an escape in it retains that the walk has not charged yet.
func (w *linkedWalker) valueSpace(v value.Value) Cost {
	return w.refs.value(v).Add(w.frames())
}

// contSpace is the linked space of the frames of k the walk has not charged
// yet. Shared continuations (an escape captured twice, or an escape whose
// continuation is a prefix of the live one) are counted once.
func (w *linkedWalker) contSpace(k value.Cont) Cost {
	w.push(k)
	return w.frames()
}

// frames charges every frame reachable from the pending stack once, on the
// stack rather than by recursion through the escapes frames hold.
func (w *linkedWalker) frames() Cost {
	var total Cost
	for len(w.pending) > 0 {
		k := w.pending[len(w.pending)-1]
		w.pending = w.pending[:len(w.pending)-1]
		if k == nil || w.seenCont[k] {
			continue
		}
		w.seenCont[k] = true
		total = total.Add(w.refs.frame(k))
		w.push(k.Next())
	}
	return total
}

// Linked computes the linked-environment space of a configuration
// (Figure 8): the U_x counterpart of Flat, collapsed at the model's pointer
// width for the live store.
func (m Measurer) Linked(val value.Value, rho env.Env, k value.Cont, st *value.Store) int {
	md := m.model()
	w := newLinkedWalker(md)
	var total Cost
	if val != nil {
		total = total.Add(w.valueSpace(val))
	}
	w.addEnv(rho)
	total = total.Add(w.contSpace(k))
	st.Each(func(_ env.Location, v value.Value) {
		total = total.Add(md.Cell()).Add(w.valueSpace(v))
	})
	total = total.AddScaled(md.Binding(), len(w.bindings))
	return total.At(m.PtrWidth(st))
}
