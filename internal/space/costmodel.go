package space

import (
	"fmt"
	"math/bits"

	"tailspace/internal/value"
)

// This file defines the cost-model axis: every per-entity charge the
// Figure 7/8 accounting makes — a value's cells, a number's digits, a
// continuation frame, a rib binding, a store cell, a linked-walk binding
// node — is priced by a CostModel instead of being hard-coded in the
// Measurer. Three models ship:
//
//   - WordModel: the paper's Figure 7/8 word counts (the default). Numbers
//     cost 1 + log2|z| (unlimited precision), every pointer costs one word.
//   - FixnumModel: WordModel with fixed-precision numbers (every number
//     costs two words) — the model the paper appeals to when it says the
//     linear programs "would be O(N) with fixed precision arithmetic".
//   - LogModel: logarithmic space accounting after Accattoli/Dal Lago/
//     Vanoni ("Reasonable Space for the λ-Calculus, Logarithmically"):
//     unit cost per node/cell, 1 + log2|z| per number, and every pointer
//     into the store costs the width of a live-store address, ⌈log2 |σ|⌉
//     bits, instead of one constant word.
//
// Charges are two-component Costs so the incremental DeltaMeter stays exact
// under LogModel: the pointer width is a run-time quantity (it grows with
// the live store), so a charge is kept as (unit words, pointer words) and
// collapsed to an integer only at observation time.

// Cost is one space charge, split into Units — words every model prices at
// width one — and Ptrs — store-pointer words whose width the model may
// scale with the live-store size. The components are summed independently;
// At collapses them once the pointer width is known.
type Cost struct {
	Units int
	Ptrs  int
}

// At collapses the charge at pointer width w: Units + Ptrs·w.
func (c Cost) At(w int) int { return c.Units + c.Ptrs*w }

// Add returns c + o, component-wise.
func (c Cost) Add(o Cost) Cost { return Cost{c.Units + o.Units, c.Ptrs + o.Ptrs} }

// Sub returns c − o, component-wise.
func (c Cost) Sub(o Cost) Cost { return Cost{c.Units - o.Units, c.Ptrs - o.Ptrs} }

// AddScaled returns c + n·o, component-wise.
func (c Cost) AddScaled(o Cost, n int) Cost {
	return Cost{c.Units + n*o.Units, c.Ptrs + n*o.Ptrs}
}

// refCost is the charge of one reference word: a value held in a push or
// call continuation, a pair's two location words, a vector slot. References
// point into the store, so they are pointer words in every model (WordModel
// and FixnumModel price pointer words at width one).
var refCost = Cost{Ptrs: 1}

// CostModel prices every entity the space semantics charges. Implementations
// must be stateless values: a model is shared between meters, hashed into
// service cache keys by Name, and compared by interface equality.
type CostModel interface {
	// Name is the canonical model name ("word", "fixnum", "log") — the wire
	// name the service hashes into cache keys and the -cost-model flag spelling.
	Name() string
	// PtrWidth is the cost of one pointer word when the live store holds
	// live cells. Models without pointer scaling return 1.
	PtrWidth(live int) int
	// Num prices the number NUM:z.
	Num(n value.Num) Cost
	// Value prices a value's own cells under flat (Figure 7) accounting.
	// Escape procedures are priced as their one-word shell only — the
	// retained continuation is charged by the caller (Measurer.Value walks
	// it) — and closures include their copied environment as Env.Size()
	// bindings.
	Value(v value.Value) Cost
	// Frame prices a single continuation frame (the per-frame increment of
	// space(κ)) from its value.Parts: a one-word header, its pending code,
	// one reference word per held value, its pending checks, and one
	// binding per entry of the saved environment.
	Frame(k value.Cont) Cost
	// Binding prices one identifier×location binding: a rib entry of a flat
	// environment, or one element of the global binding set of the linked
	// (Figure 8) walk.
	Binding() Cost
	// Cell prices a store location's own overhead — the "1 +" of Figure 7's
	// space(σ) = Σ (1 + space(σ(α))); the cell's contents are priced by Value.
	Cell() Cost
}

// The three models, as shareable singletons.
var (
	// Word is the default: the paper's Figure 7/8 word counts.
	Word CostModel = WordModel{}
	// Fixnum is WordModel with constant-cost (fixed-precision) numbers.
	Fixnum CostModel = FixnumModel{}
	// Log is the logarithmic accounting of Accattoli et al.
	Log CostModel = LogModel{}
)

// Models lists every cost model, in canonical order.
var Models = []CostModel{Word, Fixnum, Log}

// ModelByName resolves a cost-model name; the empty string means the
// default WordModel.
func ModelByName(name string) (CostModel, error) {
	switch name {
	case "", "word":
		return Word, nil
	case "fixnum":
		return Fixnum, nil
	case "log":
		return Log, nil
	}
	return nil, fmt.Errorf("space: unknown cost model %q (want word|fixnum|log)", name)
}

// modelOrDefault maps nil to the default WordModel so a zero Options or
// zero Measurer keeps the paper's accounting.
func modelOrDefault(m CostModel) CostModel {
	if m == nil {
		return Word
	}
	return m
}

// modelValue is the shared flat (Figure 7) value pricing every model
// delegates to; the model supplies the number and binding charges. See
// CostModel.Value for the escape-procedure contract.
func modelValue(m CostModel, v value.Value) Cost {
	switch x := v.(type) {
	case value.Num:
		return m.Num(x)
	case value.Str:
		return Cost{Units: 1 + len(x)}
	case value.Pair:
		// A header word and two location words.
		return Cost{Units: 1, Ptrs: 2}
	case value.Vector:
		return Cost{Units: 1, Ptrs: len(x.ElemLocs)}
	case value.Closure:
		// Flat environments are copied: 1 + |Dom ρ| bindings.
		return Cost{Units: 1}.AddScaled(m.Binding(), x.Env.Size())
	case value.Escape:
		return Cost{Units: 1}
	case *value.ArrowContract:
		// A header word plus one reference word per component contract; the
		// components are values with their own store presence.
		return Cost{Units: 1, Ptrs: 1 + len(x.Dom)}
	case value.Guarded:
		// A wrapper shell: header plus references to the wrapped procedure
		// and the contract. The wrapped procedure's own cells (its copied
		// environment included) are priced where that value is charged.
		return Cost{Units: 1, Ptrs: 2}.Add(modelValue(m, x.Proc))
	default:
		// BOOL, SYM, CHAR, the empty list, UNSPECIFIED, UNDEFINED, PRIMOP.
		return Cost{Units: 1}
	}
}

// modelFrame is the shared per-frame pricing: the frame's own charge
// (frameCost) plus one binding per saved-environment entry.
func modelFrame(m CostModel, k value.Cont) Cost {
	p := k.Parts()
	return frameCost(p).AddScaled(m.Binding(), p.Env.Size())
}

// frameCost is a frame's charge without its saved environment: a one-word
// header, one unit word per pending code slot (code pointers address the
// static program, not the store), one reference word per held value
// (Figure 7's m+n terms; the payloads are charged in the store), and per
// pending contract check a unit word for its label and a reference word.
// A mon-cod frame's cost is therefore linear in its check list, which is
// what separates the naive monitor's Θ(n) frame chain from the
// space-efficient monitor's single joined frame.
func frameCost(p value.Parts) Cost {
	c := Cost{Units: 1 + p.Code + len(p.Checks), Ptrs: len(p.Vals) + len(p.Checks)}
	if p.Val != nil {
		c.Ptrs++
	}
	return c
}

// WordModel is the paper's accounting: every word — pointer or not — costs
// one, numbers cost 1 + log2|z| (Figure 7's unlimited-precision NUM rule).
type WordModel struct{}

// Name implements CostModel.
func (WordModel) Name() string { return "word" }

// PtrWidth implements CostModel: pointers are one word.
func (WordModel) PtrWidth(int) int { return 1 }

// Num implements CostModel: 1 + log2|z|.
func (WordModel) Num(n value.Num) Cost { return Cost{Units: 1 + n.Int.BitLen()} }

// Binding implements CostModel: one location word per binding.
func (WordModel) Binding() Cost { return Cost{Ptrs: 1} }

// Cell implements CostModel: one header word per store cell.
func (WordModel) Cell() Cost { return Cost{Units: 1} }

// Value implements CostModel.
func (m WordModel) Value(v value.Value) Cost { return modelValue(m, v) }

// Frame implements CostModel.
func (m WordModel) Frame(k value.Cont) Cost { return modelFrame(m, k) }

// FixnumModel is WordModel with fixed-precision numbers: every number costs
// two words regardless of magnitude. It absorbs the former NumberMode knob.
type FixnumModel struct{}

// Name implements CostModel.
func (FixnumModel) Name() string { return "fixnum" }

// PtrWidth implements CostModel: pointers are one word.
func (FixnumModel) PtrWidth(int) int { return 1 }

// Num implements CostModel: a tag word and a payload word.
func (FixnumModel) Num(value.Num) Cost { return Cost{Units: 2} }

// Binding implements CostModel.
func (FixnumModel) Binding() Cost { return Cost{Ptrs: 1} }

// Cell implements CostModel.
func (FixnumModel) Cell() Cost { return Cost{Units: 1} }

// Value implements CostModel.
func (m FixnumModel) Value(v value.Value) Cost { return modelValue(m, v) }

// Frame implements CostModel.
func (m FixnumModel) Frame(k value.Cont) Cost { return modelFrame(m, k) }

// LogModel is logarithmic space accounting: unit cost per node/cell and per
// binding, 1 + log2|z| per number, and pointers into the store cost the
// width of a live-store address — ⌈log2(live+1)⌉ bits, at least one — so a
// configuration with n live cells pays Θ(log n) per retained reference.
// Under this model a program whose live store grows linearly occupies
// Θ(n log n), not Θ(n): the space-class separations of Theorem 25 must be
// re-derived, which is exactly what the cost-model sweep does.
type LogModel struct{}

// Name implements CostModel.
func (LogModel) Name() string { return "log" }

// PtrWidth implements CostModel: the bit width of a live-store address.
func (LogModel) PtrWidth(live int) int {
	if live <= 1 {
		return 1
	}
	return bits.Len(uint(live))
}

// Num implements CostModel: 1 + log2|z|, as in WordModel — the logarithmic
// model and Figure 7 agree on numbers; they differ on pointers.
func (LogModel) Num(n value.Num) Cost { return Cost{Units: 1 + n.Int.BitLen()} }

// Binding implements CostModel: a unit node plus one store pointer.
func (LogModel) Binding() Cost { return Cost{Units: 1, Ptrs: 1} }

// Cell implements CostModel: unit cost per cell (the cell's contents carry
// their own pointer charges).
func (LogModel) Cell() Cost { return Cost{Units: 1} }

// Value implements CostModel.
func (m LogModel) Value(v value.Value) Cost { return modelValue(m, v) }

// Frame implements CostModel.
func (m LogModel) Frame(k value.Cont) Cost { return modelFrame(m, k) }
