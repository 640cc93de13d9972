package space

import (
	"fmt"

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

// linkedWalker accumulates the global binding set while measuring. The same
// environment reaches addEnv many times per configuration (each frame's saved
// ρ, every closure in the store and in Done lists), and distinct environments
// share rib suffixes, so two exact dedup layers keep the walk near-linear:
// seenEnv skips environments already folded in (equal Envs share one rib
// chain, hence bind identically), and ribs skips shared shadow-free suffixes
// across different environments. Neither changes the resulting set — they
// only elide duplicate inserts.
type linkedWalker struct {
	md       CostModel
	bindings map[binding]struct{}
	seenEnv  map[env.Env]bool
	ribs     *env.RibSet
	seenCont map[value.Cont]bool
}

func newLinkedWalker(md CostModel) *linkedWalker {
	return &linkedWalker{
		md:       md,
		bindings: make(map[binding]struct{}),
		seenEnv:  make(map[env.Env]bool),
		ribs:     env.NewRibSet(),
		seenCont: make(map[value.Cont]bool),
	}
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

// valueSpace is the linked space of a value: like Figure 7 but closures cost
// one word (their bindings enter the global set) and escapes cost one word
// plus the linked frame space of their continuation.
func (w *linkedWalker) valueSpace(v value.Value) Cost {
	switch x := v.(type) {
	case value.Closure:
		w.addEnv(x.Env)
		return Cost{Units: 1}
	case value.Escape:
		return Cost{Units: 1}.Add(w.contSpace(x.K))
	case *value.ArrowContract:
		c := Cost{Units: 1, Ptrs: 1 + len(x.Dom)}
		for _, d := range x.Dom {
			c = c.Add(w.valueSpace(d))
		}
		return c.Add(w.valueSpace(x.Cod))
	case value.Guarded:
		return Cost{Units: 1, Ptrs: 2}.Add(w.valueSpace(x.Proc)).Add(w.valueSpace(x.Ctc))
	default:
		return w.md.Value(v)
	}
}

// contSpace is the linked space of a continuation: Figure 8's frame costs,
// with every saved environment folded into the global binding set. Shared
// continuations (an escape captured twice, or an escape whose continuation
// is a prefix of the live one) are counted once.
func (w *linkedWalker) contSpace(k value.Cont) Cost {
	var total Cost
	for k != nil {
		if w.seenCont[k] {
			return total
		}
		w.seenCont[k] = true
		switch x := k.(type) {
		case value.Halt:
			return total.Add(Cost{Units: 1})
		case *value.Select:
			w.addEnv(x.Env)
			total = total.Add(Cost{Units: 1})
		case *value.Assign:
			w.addEnv(x.Env)
			total = total.Add(Cost{Units: 1})
		case *value.Push:
			w.addEnv(x.Env)
			total = total.Add(Cost{Units: 1 + len(x.Rest), Ptrs: len(x.Done)})
			for _, v := range x.Done {
				total = total.Add(w.heldValueSpace(v))
			}
		case *value.Call:
			total = total.Add(Cost{Units: 1, Ptrs: len(x.Args)})
			for _, v := range x.Args {
				total = total.Add(w.heldValueSpace(v))
			}
		case *value.Return:
			w.addEnv(x.Env)
			total = total.Add(Cost{Units: 1})
		case *value.ReturnStack:
			w.addEnv(x.Env)
			total = total.Add(Cost{Units: 1})
		case *value.MonCtc:
			w.addEnv(x.Env)
			total = total.Add(Cost{Units: 2})
		case *value.MonAttach:
			total = total.Add(Cost{Units: 1, Ptrs: 1}).Add(w.heldValueSpace(x.Ctc))
		case *value.MonDom:
			total = total.Add(Cost{Units: 2, Ptrs: 1 + len(x.Args)}).Add(w.heldValueSpace(x.G))
			for _, v := range x.Args {
				total = total.Add(w.heldValueSpace(v))
			}
		case *value.MonCod:
			total = total.Add(Cost{Units: 1 + len(x.Pend), Ptrs: len(x.Pend)})
			for _, p := range x.Pend {
				total = total.Add(w.heldValueSpace(p.Ctc))
				total = total.Add(w.heldValueSpace(p.Src))
			}
		case *value.MonChk:
			total = total.Add(Cost{Units: 1 + len(x.Rest), Ptrs: 1 + len(x.Rest)}).Add(w.heldValueSpace(x.Val))
			for _, p := range x.Rest {
				total = total.Add(w.heldValueSpace(p.Ctc))
				total = total.Add(w.heldValueSpace(p.Src))
			}
		default:
			panic(fmt.Sprintf("space: unpriced continuation frame %T — every frame kind must be charged", k))
		}
		k = k.Next()
	}
	return total
}

// heldValueSpace records the bindings of a value held by reference (in a
// continuation) and returns the extra space it retains: its reference word
// is already charged by the frame's m+n term, but the frames an escape
// retains occupy real space (counted once — seenCont dedups).
func (w *linkedWalker) heldValueSpace(v value.Value) Cost {
	switch x := v.(type) {
	case value.Closure:
		w.addEnv(x.Env)
		return Cost{}
	case value.Escape:
		return w.contSpace(x.K)
	case *value.ArrowContract:
		var c Cost
		for _, d := range x.Dom {
			c = c.Add(w.heldValueSpace(d))
		}
		return c.Add(w.heldValueSpace(x.Cod))
	case value.Guarded:
		return w.heldValueSpace(x.Proc).Add(w.heldValueSpace(x.Ctc))
	}
	return Cost{}
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
