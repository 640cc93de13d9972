// Package space implements the space consumed by a configuration: Figure 7
// of the paper (flat, copied environments — the functions S_x) and Figure 8
// (linked, shared environments — the functions U_x), priced through a
// pluggable CostModel (see costmodel.go).
//
// Entities the figures omit are charged their natural word counts and noted
// here: UNSPECIFIED, UNDEFINED, PRIMOP, the empty list, and characters cost
// 1; strings cost 1+length; pairs cost 3 (a header and two location words);
// escape procedures cost 1 plus the space of the continuation they retain.
// Values held inside push and call continuations cost one word each (they
// are references; their payloads are charged in the store), exactly as
// Figure 7's 1+m+n accounting prescribes. Those per-entity charges are the
// WordModel; FixnumModel and LogModel reprice numbers and pointers.
//
// Measurer methods return Cost — a (unit words, pointer words) pair — and
// the configuration-level Flat and Linked collapse it to an integer at the
// model's pointer width for the current live store.
package space

import (
	"tailspace/internal/env"
	"tailspace/internal/value"
)

// Measurer computes configuration space under a chosen cost model. The zero
// Measurer uses the default WordModel.
type Measurer struct {
	Model CostModel
}

// NewMeasurer returns a Measurer over model (nil means WordModel).
func NewMeasurer(model CostModel) Measurer {
	return Measurer{Model: modelOrDefault(model)}
}

func (m Measurer) model() CostModel { return modelOrDefault(m.Model) }

// Value is Figure 7's space(v). Unlike CostModel.Value, an escape procedure
// here includes the continuation it retains, matching the figure.
func (m Measurer) Value(v value.Value) Cost {
	c := m.model().Value(v)
	if esc, ok := heldEscape(v); ok {
		c = c.Add(m.Cont(esc.K))
	}
	return c
}

// heldEscape returns the escape procedure v is, or wraps under any number
// of guards. The model prices each guard's shell and the escape's own word;
// the continuation the escape retains is the caller's to add.
func heldEscape(v value.Value) (value.Escape, bool) {
	for {
		switch x := v.(type) {
		case value.Escape:
			return x, true
		case value.Guarded:
			v = x.Proc
		default:
			return value.Escape{}, false
		}
	}
}

// Cont is Figure 7's space(κ): the sum of the per-frame charges.
func (m Measurer) Cont(k value.Cont) Cost {
	md := m.model()
	var total Cost
	for k != nil {
		total = total.Add(md.Frame(k))
		k = k.Next()
	}
	return total
}

// Frame is the charge of a single continuation frame — the per-frame
// increment of Cont. DeltaMeter and the peak-attribution reports both price
// frames through this single definition.
func (m Measurer) Frame(k value.Cont) Cost { return m.model().Frame(k) }

// Store is Figure 7's space(σ) = Σ over α ∈ σ of (1 + space(σ(α))),
// computed by a full walk. DeltaMeter maintains the same sum incrementally
// through the store's mutation hooks.
func (m Measurer) Store(st *value.Store) Cost {
	md := m.model()
	var total Cost
	st.Each(func(_ env.Location, v value.Value) {
		total = total.Add(md.Cell()).Add(m.Value(v))
	})
	return total
}

// PtrWidth is the model's pointer width for the live store st.
func (m Measurer) PtrWidth(st *value.Store) int {
	if st == nil {
		return m.model().PtrWidth(0)
	}
	return m.model().PtrWidth(st.Size())
}

// Flat computes the flat-environment space of a configuration (Figure 7),
// collapsed at the model's pointer width for the live store. For an
// expression configuration pass val == nil; the expression itself is charged
// once per program by the |P| term of Definition 23, not per configuration.
func (m Measurer) Flat(val value.Value, rho env.Env, k value.Cont, st *value.Store) int {
	md := m.model()
	total := Cost{}.AddScaled(md.Binding(), rho.Size()).Add(m.Cont(k)).Add(m.Store(st))
	if val != nil {
		total = total.Add(m.Value(val))
	}
	return total.At(m.PtrWidth(st))
}
