package env

import "fmt"

// BindingCounts keeps the union of graph(ρ) over a multiset of environments
// up to date as environments are added and removed: the Figure 8 binding set
// of a configuration, maintained by reference counting instead of being
// re-collected on every observation.
//
// Shadow-free chains (entries == size: every rib entry is visible) are
// counted per rib. A rib that gains its first reference adds its
// (identifier, location) pairs to the per-pair counts and references its
// parent; a rib that loses its last reference removes them and releases its
// parent. Ribs are immutable and only point at older ribs, so the counts
// never see a cycle. A shadowed chain hides some of its rib entries, so it
// is counted per environment instead: its visible bindings (EachSym) enter
// the pair counts when the environment gains its first reference. Either
// way a pair is in the union exactly while its count is positive, and Len
// is exact.
//
// The zero value is not ready; use NewBindingCounts. A BindingCounts is not
// safe for concurrent use.
type BindingCounts struct {
	ribs   map[*rib]int32
	chains map[*rib]int32
	pairs  map[bindingPair]int32
}

// bindingPair is one element of graph(ρ).
type bindingPair struct {
	sym Symbol
	loc Location
}

// NewBindingCounts returns an empty account.
func NewBindingCounts() *BindingCounts {
	return &BindingCounts{
		ribs:   make(map[*rib]int32),
		chains: make(map[*rib]int32),
		pairs:  make(map[bindingPair]int32),
	}
}

// Len is the number of distinct (identifier, location) pairs bound by the
// environments currently referenced.
func (b *BindingCounts) Len() int { return len(b.pairs) }

// Tracked is the number of ribs and shadowed chains currently referenced.
func (b *BindingCounts) Tracked() int { return len(b.ribs) + len(b.chains) }

// Acquire adds one reference to e. Its cost is O(1) plus the entries of the
// ribs (or, for a shadowed chain, the visible bindings) that were not
// referenced before.
func (b *BindingCounts) Acquire(e Env) {
	r := e.r
	if r == nil {
		return
	}
	if r.entries != r.size {
		n := b.chains[r]
		b.chains[r] = n + 1
		if n == 0 {
			e.EachSym(b.addPair)
		}
		return
	}
	for ; r != nil; r = r.up {
		n := b.ribs[r]
		b.ribs[r] = n + 1
		if n > 0 {
			return
		}
		for i, s := range r.syms {
			b.pairs[bindingPair{s, r.locs[i]}]++
		}
	}
}

// Release drops one reference to e, which must have been acquired. Ribs and
// chains left unreferenced take their pairs out of the union.
func (b *BindingCounts) Release(e Env) {
	r := e.r
	if r == nil {
		return
	}
	if r.entries != r.size {
		n := b.chains[r] - 1
		switch {
		case n > 0:
			b.chains[r] = n
		case n == 0:
			delete(b.chains, r)
			e.EachSym(b.dropPair)
		default:
			panic("env: Release of an environment that was never acquired")
		}
		return
	}
	for ; r != nil; r = r.up {
		n := b.ribs[r] - 1
		if n > 0 {
			b.ribs[r] = n
			return
		}
		if n < 0 {
			panic("env: Release of an environment that was never acquired")
		}
		delete(b.ribs, r)
		for i, s := range r.syms {
			b.dropPair(s, r.locs[i])
		}
	}
}

func (b *BindingCounts) addPair(s Symbol, loc Location) {
	b.pairs[bindingPair{s, loc}]++
}

func (b *BindingCounts) dropPair(s Symbol, loc Location) {
	p := bindingPair{s, loc}
	switch n := b.pairs[p]; {
	case n > 1:
		b.pairs[p] = n - 1
	case n == 1:
		delete(b.pairs, p)
	default:
		panic(fmt.Sprintf("env: binding %s@%d dropped more often than added", SymbolName(s), loc))
	}
}
