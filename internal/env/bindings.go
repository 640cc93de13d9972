package env

import (
	"fmt"
	"slices"
)

// Node is the unit an environment is reference counted by: one rib of a
// shadow-free chain (entries == size), whose references are its own entries
// and its parent rib, or the head of a shadowed chain, whose references are
// the chain's visible bindings. Ribs are immutable and only point at older
// ribs, so nodes never form a cycle among themselves. The zero Node is the
// empty environment's, which holds nothing.
type Node struct{ r *rib }

// Node returns the node a reference to e lands on.
func (e Env) Node() Node { return Node{e.r} }

// IsZero reports whether n is the empty environment's node.
func (n Node) IsZero() bool { return n.r == nil }

// Age is the newest location n's chain binds, hidden entries included, or
// -1 for the empty environment: no location reachable through n is newer.
func (n Node) Age() Location {
	if n.r == nil {
		return -1
	}
	return n.r.top
}

// shadowed reports whether n heads a shadowed chain.
func (n Node) shadowed() bool { return n.r.entries != n.r.size }

// EachBinding calls f on the bindings n holds itself: a shadow-free rib's
// own entries, or every visible binding of a shadowed chain.
func (n Node) EachBinding(f func(s Symbol, loc Location)) {
	if n.r == nil {
		return
	}
	if n.shadowed() {
		Env{n.r}.EachSym(f)
		return
	}
	for i, s := range n.r.syms {
		f(s, n.r.locs[i])
	}
}

// Binds reports whether n holds a binding to loc itself (see EachBinding).
func (n Node) Binds(loc Location) bool {
	if n.r == nil || loc > n.r.top {
		return false
	}
	if !n.shadowed() {
		return slices.Contains(n.r.locs, loc)
	}
	found := false
	Env{n.r}.EachSym(func(_ Symbol, l Location) { found = found || l == loc })
	return found
}

// Up is the node n holds besides its bindings: a shadow-free rib's parent.
// It is zero for a shadowed chain's head, which holds its whole chain's
// visible bindings itself, and for a chain's last rib.
func (n Node) Up() Node {
	if n.r == nil || n.shadowed() {
		return Node{}
	}
	return Node{n.r.up}
}

// RibCounts keeps reference counts on environment nodes: a node that gains
// its first reference hands its bindings to gain and references its Up
// node; one that loses its last hands them to lose and releases its Up
// node. BindingCounts keeps the Figure 8 binding union this way, and the
// store's collector its cell counts.
//
// A RibCounts is not safe for concurrent use.
type RibCounts struct {
	counts     map[*rib]int32
	gain, lose func(Symbol, Location)
	// fell, when set, receives every node whose count fell and stayed
	// positive.
	fell func(Node)
}

// NewRibCounts returns an empty account that reports bindings entering and
// leaving it to gain and lose, and nodes whose count fell but stayed
// positive to fell (which may be nil).
func NewRibCounts(gain, lose func(Symbol, Location), fell func(Node)) *RibCounts {
	return &RibCounts{counts: make(map[*rib]int32), gain: gain, lose: lose, fell: fell}
}

// Tracked is the number of nodes currently referenced.
func (c *RibCounts) Tracked() int { return len(c.counts) }

// Reset forgets every count without calling gain or lose, keeping the
// table's memory for reuse.
func (c *RibCounts) Reset() { clear(c.counts) }

// Acquire adds one reference to e. Its cost is O(1) plus the bindings of
// the nodes that were not referenced before.
func (c *RibCounts) Acquire(e Env) { c.AcquireNode(e.Node()) }

// AcquireNode adds one reference to n.
func (c *RibCounts) AcquireNode(n Node) {
	for r := n.r; r != nil; r = r.up {
		n := c.counts[r]
		c.counts[r] = n + 1
		if n > 0 {
			return
		}
		Node{r}.EachBinding(c.gain)
		if r.entries != r.size {
			return
		}
	}
}

// Release drops one reference to e, which must have been acquired. Nodes
// left unreferenced take their bindings out of the account.
func (c *RibCounts) Release(e Env) { c.ReleaseNode(e.Node()) }

// ReleaseNode drops one reference to n, which must be referenced.
func (c *RibCounts) ReleaseNode(n Node) {
	for r := n.r; r != nil; r = r.up {
		k := c.counts[r] - 1
		if k > 0 {
			c.counts[r] = k
			if c.fell != nil {
				c.fell(Node{r})
			}
			return
		}
		if k < 0 {
			panic("env: Release of an environment that was never acquired")
		}
		delete(c.counts, r)
		Node{r}.EachBinding(c.lose)
		if r.entries != r.size {
			return
		}
	}
}

// Count is n's reference count.
func (c *RibCounts) Count(n Node) int32 { return c.counts[n.r] }

// Adjust adds delta to n's count without cascading, as trial deletion
// does, and returns the new count. n must be referenced.
func (c *RibCounts) Adjust(n Node, delta int32) int32 {
	k := c.counts[n.r] + delta
	c.counts[n.r] = k
	return k
}

// Forget drops n from the account without releasing anything it holds:
// the collector calls it for a node it frees together with what it holds.
func (c *RibCounts) Forget(n Node) { delete(c.counts, n.r) }

// BindingCounts keeps the union of graph(ρ) over a multiset of environments
// up to date as environments are added and removed: the Figure 8 binding set
// of a configuration, maintained by reference counting instead of being
// re-collected on every observation. The nodes are counted by a RibCounts,
// and a pair is in the union exactly while some referenced node holds it,
// so Len is exact.
//
// The zero value is not ready; use NewBindingCounts. A BindingCounts is not
// safe for concurrent use.
type BindingCounts struct {
	nodes *RibCounts
	pairs map[bindingPair]int32
}

// bindingPair is one element of graph(ρ).
type bindingPair struct {
	sym Symbol
	loc Location
}

// NewBindingCounts returns an empty account.
func NewBindingCounts() *BindingCounts {
	b := &BindingCounts{pairs: make(map[bindingPair]int32)}
	b.nodes = NewRibCounts(b.addPair, b.dropPair, nil)
	return b
}

// Len is the number of distinct (identifier, location) pairs bound by the
// environments currently referenced.
func (b *BindingCounts) Len() int { return len(b.pairs) }

// Tracked is the number of ribs and shadowed chains currently referenced.
func (b *BindingCounts) Tracked() int { return b.nodes.Tracked() }

// Reset empties the account, keeping its tables' memory for reuse.
func (b *BindingCounts) Reset() {
	b.nodes.Reset()
	clear(b.pairs)
}

// Acquire adds one reference to e. Its cost is O(1) plus the entries of the
// ribs (or, for a shadowed chain, the visible bindings) that were not
// referenced before.
func (b *BindingCounts) Acquire(e Env) { b.nodes.Acquire(e) }

// Release drops one reference to e, which must have been acquired. Ribs and
// chains left unreferenced take their pairs out of the union.
func (b *BindingCounts) Release(e Env) { b.nodes.Release(e) }

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
