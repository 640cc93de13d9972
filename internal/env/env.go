// Package env implements the environments ρ of the paper's Figure 4:
// finite functions from identifiers to store locations.
//
// Environments are persistent, which makes |Dom ρ| the honest
// flat-environment charge of Figure 7: every configuration that mentions ρ
// pays for all of its bindings. The linked-environment accounting of
// Figure 8 instead unions graph(ρ) across the whole configuration; EachSym
// iteration supports that.
//
// Identifiers are interned Symbols (see Intern); the expander interns every
// identifier it emits, so no operation here takes a spelling. The
// representation is a chain of slice-backed ribs: ExtendSyms pushes one rib
// (O(new bindings), sharing the parent chain with the original), LookupSym
// scans ribs newest-first comparing integers, and |Dom ρ| is cached per rib
// so Size stays O(1). The chain depth follows lexical nesting — a closure
// extends its *defining* environment — so rib scans stay short even in deep
// recursions. Iteration must skip shadowed entries (a rib never erases its
// parents), which keeps Locations and the Figure 8 binding union identical
// to the semantics' finite-map reading.
package env

import "sort"

// Location is a store address α.
type Location int

// rib is one extension frame: parallel symbol/location slices plus the
// cached domain size of the whole chain. Ribs are immutable once built.
type rib struct {
	syms []Symbol
	locs []Location
	up   *rib
	// size caches |Dom ρ| for the chain ending at this rib — the rib-size
	// accounting behind Figure 7's 1+|Dom ρ| frame charges. Meters price
	// every environment of every configuration on every transition, so the
	// charge must stay O(1) even though the backing representation is linked.
	size int
	// entries counts the chain's total rib entries, shadowed included; it
	// bounds iteration scratch.
	entries int
}

// Env is a finite map from identifiers to locations. The zero value is the
// empty environment. Env is comparable; two equal Envs share one rib chain
// and therefore bind identically (the converse does not hold).
type Env struct {
	r *rib
}

// Empty returns the empty environment { }.
func Empty() Env { return Env{} }

// LookupSym returns ρ(I) for an interned identifier. Within a rib, later
// entries shadow earlier ones; newer ribs shadow older ones.
func (e Env) LookupSym(s Symbol) (Location, bool) {
	for r := e.r; r != nil; r = r.up {
		for i := len(r.syms) - 1; i >= 0; i-- {
			if r.syms[i] == s {
				return r.locs[i], true
			}
		}
	}
	return 0, false
}

// ExtendSyms returns ρ[I1...In ↦ β1...βn]. It panics if the slices disagree
// in length; callers check arity first. The rib takes ownership of both
// slices; callers must not mutate them afterwards.
func (e Env) ExtendSyms(syms []Symbol, locs []Location) Env {
	if len(syms) != len(locs) {
		panic("env: ExtendSyms with mismatched identifiers and locations")
	}
	if len(syms) == 0 {
		return e
	}
	size, entries := 0, len(syms)
	if e.r != nil {
		size, entries = e.r.size, e.r.entries+len(syms)
	}
	// Count the genuinely new identifiers: a name already bound below, or
	// repeated later in this same rib, does not grow |Dom ρ|.
fresh:
	for i, s := range syms {
		for j := i + 1; j < len(syms); j++ {
			if syms[j] == s {
				continue fresh
			}
		}
		if _, bound := e.LookupSym(s); !bound {
			size++
		}
	}
	return Env{r: &rib{syms: syms, locs: locs, up: e.r, size: size, entries: entries}}
}

// RestrictSyms returns ρ restricted to the given identifiers (duplicates
// tolerated). It is the hot-path restriction the safe-for-space machines
// perform on every continuation they build: O(|keep| · rib scan), and the
// result is a single flat rib.
func (e Env) RestrictSyms(keep []Symbol) Env {
	syms := make([]Symbol, 0, len(keep))
	locs := make([]Location, 0, len(keep))
dedup:
	for i, s := range keep {
		for j := 0; j < i; j++ {
			if keep[j] == s {
				continue dedup
			}
		}
		if l, ok := e.LookupSym(s); ok {
			syms = append(syms, s)
			locs = append(locs, l)
		}
	}
	return flatEnv(syms, locs)
}

// RestrictToSym returns ρ | {I} for a single interned identifier.
func (e Env) RestrictToSym(s Symbol) Env {
	l, ok := e.LookupSym(s)
	if !ok {
		return Env{}
	}
	return flatEnv([]Symbol{s}, []Location{l})
}

// flatEnv wraps already-deduplicated parallel slices as a single-rib Env.
func flatEnv(syms []Symbol, locs []Location) Env {
	if len(syms) == 0 {
		return Env{}
	}
	return Env{r: &rib{syms: syms, locs: locs, size: len(syms), entries: len(syms)}}
}

// Size is |Dom ρ|, the flat-environment space charge, read from the cached
// rib-size account (O(1), representation-independent).
func (e Env) Size() int {
	if e.r == nil {
		return 0
	}
	return e.r.size
}

// IsEmpty reports whether ρ = { }.
func (e Env) IsEmpty() bool { return e.Size() == 0 }

// EachSym calls f on every binding in ρ exactly once per identifier in Dom ρ
// (the visible binding; shadowed rib entries are skipped). Iteration order is
// unspecified.
func (e Env) EachSym(f func(s Symbol, loc Location)) {
	if e.r == nil {
		return
	}
	// Shadow-free chains (every entry a distinct identifier — the common
	// case; entries == size detects it in O(1)) iterate directly.
	if e.r.entries == e.r.size {
		for r := e.r; r != nil; r = r.up {
			for i := len(r.syms) - 1; i >= 0; i-- {
				f(r.syms[i], r.locs[i])
			}
		}
		return
	}
	// Dedup against the identifiers already visited. Rib chains are short
	// (lexical depth), so a linear scan over a stack-backed scratch beats
	// hashing; the scratch spills to the heap only past 64 entries.
	var buf [64]Symbol
	seen := buf[:0]
	for r := e.r; r != nil; r = r.up {
	entries:
		for i := len(r.syms) - 1; i >= 0; i-- {
			s := r.syms[i]
			for _, q := range seen {
				if q == s {
					continue entries
				}
			}
			seen = append(seen, s)
			f(s, r.locs[i])
		}
	}
}

// RibSet remembers rib chains already delivered through EachSymShared, so
// callers that union bindings across many environments (Figure 8's global
// binding set) can skip shared suffixes instead of re-walking them.
// The zero value is not ready; use NewRibSet.
type RibSet struct {
	seen map[*rib]bool
}

// NewRibSet returns an empty rib cache.
func NewRibSet() *RibSet { return &RibSet{seen: make(map[*rib]bool)} }

// EachSymShared is EachSym for callers accumulating a set union across many
// environments sharing one RibSet: bindings on rib chains the set has already
// delivered are skipped. Only shadow-free chains enter the cache — a rib
// reached through shadowing has hidden entries, so such chains are walked in
// full and never marked. Across any sequence of calls with the same set, the
// union of delivered bindings equals the union EachSym would deliver; only
// duplicates are elided.
func (e Env) EachSymShared(set *RibSet, f func(s Symbol, loc Location)) {
	if e.r == nil {
		return
	}
	if e.r.entries == e.r.size {
		// Every entry of every rib is visible. A marked rib implies its whole
		// upward chain was delivered when it was first walked, so stop there.
		for r := e.r; r != nil && !set.seen[r]; r = r.up {
			set.seen[r] = true
			for i := len(r.syms) - 1; i >= 0; i-- {
				f(r.syms[i], r.locs[i])
			}
		}
		return
	}
	e.EachSym(f)
}

// Domain returns Dom ρ in lexical order.
func (e Env) Domain() []string {
	out := make([]string, 0, e.Size())
	e.EachSym(func(s Symbol, _ Location) { out = append(out, SymbolName(s)) })
	sort.Strings(out)
	return out
}

// AppendLocations appends Ran ρ (one location per identifier in Dom ρ, with
// duplicate locations preserved) to out; these are GC roots. The append
// contract lets callers reuse a scratch buffer across calls.
func (e Env) AppendLocations(out []Location) []Location {
	e.EachSym(func(_ Symbol, loc Location) { out = append(out, loc) })
	return out
}

// Locations returns Ran ρ (with duplicates preserved); these are GC roots.
func (e Env) Locations() []Location {
	if e.r == nil {
		return nil
	}
	return e.AppendLocations(make([]Location, 0, e.Size()))
}
