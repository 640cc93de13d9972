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

import (
	"slices"
	"sort"
	"sync/atomic"
)

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
	size int32
	// entries counts the chain's total rib entries, shadowed included.
	// entries − size is the number of hidden entries, and it never shrinks
	// from parent to child, so every rib above a shadow-free rib is
	// shadow-free too.
	entries int32
	// top is the newest location the chain binds, hidden entries included
	// (-1 for none): its age, which the store's collector compares with
	// the cells that mention it (see Node.Age).
	top Location
	// mark is the last epoch that delivered this rib (see Epoch). On a
	// shadow-free rib it means the rib and its whole upward chain were
	// delivered; on a shadowed rib, that the chain's visible bindings were.
	// A rib is either kind for its whole life, so one field serves both.
	mark Epoch
}

// Epoch names one traversal that delivers each rib at most once, such as
// one garbage collection: AppendLocations under an epoch stamps the ribs it
// delivers and stops at a rib already stamped with that epoch, since every
// location visible from there has reached the same traversal. NewEpoch
// draws from one process-wide counter, so a rib stamped by one traversal
// never looks delivered to another, whichever store or goroutine ran it.
type Epoch uint64

// Unstamped is the zero Epoch. A walk under it stamps nothing and delivers
// every visible binding of every environment it is given: plain, duplicate
// preserving enumeration.
const Unstamped Epoch = 0

var epochs atomic.Uint64

// NewEpoch returns an epoch that no earlier call returned.
func NewEpoch() Epoch { return Epoch(epochs.Add(1)) }

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
	size, entries, top := int32(0), int32(len(syms)), Location(-1)
	if e.r != nil {
		size, entries, top = e.r.size, e.r.entries+int32(len(syms)), e.r.top
	}
	for _, l := range locs {
		top = max(top, l)
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
	return Env{r: &rib{syms: syms, locs: locs, up: e.r, size: size, entries: entries, top: top}}
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

// Distinct returns { }[I1...In ↦ β1...βn] for identifiers the caller
// knows to be distinct: field for field the rib Empty().ExtendSyms builds,
// without its duplicate scan, which is quadratic in the rib's length. The
// rib takes ownership of both slices.
func Distinct(syms []Symbol, locs []Location) Env {
	if len(syms) != len(locs) {
		panic("env: Distinct with mismatched identifiers and locations")
	}
	return flatEnv(syms, locs)
}

// flatEnv wraps already-deduplicated parallel slices as a single-rib Env.
func flatEnv(syms []Symbol, locs []Location) Env {
	if len(syms) == 0 {
		return Env{}
	}
	n := int32(len(syms))
	return Env{r: &rib{syms: syms, locs: locs, size: n, entries: n, top: slices.Max(locs)}}
}

// Size is |Dom ρ|, the flat-environment space charge, read from the cached
// rib-size account (O(1), representation-independent).
func (e Env) Size() int {
	if e.r == nil {
		return 0
	}
	return int(e.r.size)
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

// AppendLocations appends Ran ρ (one location per identifier in Dom ρ) to
// out; these are GC roots. The append contract lets callers reuse a scratch
// buffer across calls.
//
// Under Unstamped every call appends all of Ran ρ. Under any other epoch,
// across all the calls made under it, the appended locations are exactly the
// union of the environments' Ran ρ, and a rib one call delivered is not
// walked again: an environment costs O(1) plus the ribs no earlier call
// delivered. A
// shadow-free chain (entries == size) appends and stamps each rib and stops
// at the first stamped one. A shadowed chain stamps its head, appends only
// its visible entries, and stops at any stamped rib; once it has skipped all
// entries − size hidden entries, the rest of the chain is shadow-free and
// the plain walk takes over. The ribs it passed below the head before the
// hand-over stay unstamped, because some of what they bind was hidden here.
func (e Env) AppendLocations(ep Epoch, out []Location) []Location {
	r := e.r
	if r == nil {
		return out
	}
	if ep == Unstamped {
		e.EachSym(func(_ Symbol, loc Location) { out = append(out, loc) })
		return out
	}
	if r.mark == ep {
		return out
	}
	if hidden := r.entries - r.size; hidden > 0 {
		r.mark = ep
		// An entry hides an older one only if its rib is shadowed, so only
		// those ribs' identifiers enter the scratch, which stays on the
		// stack up to 64 of them.
		var buf [64]Symbol
		seen := buf[:0]
		for hidden > 0 {
			shadowed := r.entries != r.size
			for i := len(r.syms) - 1; i >= 0; i-- {
				s := r.syms[i]
				if hidden > 0 && slices.Contains(seen, s) {
					hidden--
					continue
				}
				if shadowed {
					seen = append(seen, s)
				}
				out = append(out, r.locs[i])
			}
			r = r.up
			if r == nil || r.mark == ep {
				// A stamped rib delivered at least what remains visible here.
				return out
			}
		}
	}
	for ; r != nil && r.mark != ep; r = r.up {
		r.mark = ep
		out = append(out, r.locs...)
	}
	return out
}

// Locations returns Ran ρ (with duplicates preserved); these are GC roots.
func (e Env) Locations() []Location {
	if e.r == nil {
		return nil
	}
	return e.AppendLocations(Unstamped, make([]Location, 0, e.Size()))
}
