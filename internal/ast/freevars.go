package ast

import (
	"sort"

	"tailspace/internal/env"
)

// VarSet is a set of identifiers.
type VarSet map[string]struct{}

// NewVarSet builds a set from names.
func NewVarSet(names ...string) VarSet {
	s := make(VarSet, len(names))
	for _, n := range names {
		s[n] = struct{}{}
	}
	return s
}

// Contains reports membership.
func (s VarSet) Contains(name string) bool {
	_, ok := s[name]
	return ok
}

// Add inserts name.
func (s VarSet) Add(name string) { s[name] = struct{}{} }

// Union returns a new set with the elements of both sets.
func (s VarSet) Union(t VarSet) VarSet {
	u := make(VarSet, len(s)+len(t))
	for k := range s {
		u[k] = struct{}{}
	}
	for k := range t {
		u[k] = struct{}{}
	}
	return u
}

// Sorted returns the members in lexical order.
func (s VarSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FreeVarCache memoizes FV(E) by node identity. The safe-for-space machines
// (Z_free, Z_sfs) consult it on every environment restriction, so the
// analysis must be shared rather than recomputed.
type FreeVarCache struct {
	memo map[Expr]VarSet
	// symMemo caches FV(E) as a sorted slice of interned symbols — the form
	// the machines' environment restrictions consume. Callers must treat the
	// returned slices as immutable.
	symMemo map[Expr][]env.Symbol
}

// NewFreeVarCache returns an empty cache.
func NewFreeVarCache() *FreeVarCache {
	return &FreeVarCache{
		memo:    make(map[Expr]VarSet),
		symMemo: make(map[Expr][]env.Symbol),
	}
}

// Free returns FV(e), the set of identifiers occurring free in e.
func (c *FreeVarCache) Free(e Expr) VarSet {
	if s, ok := c.memo[e]; ok {
		return s
	}
	var s VarSet
	switch x := e.(type) {
	case *Const:
		s = VarSet{}
	case *Var:
		s = NewVarSet(x.Name)
	case *Lambda:
		body := c.Free(x.Body)
		s = make(VarSet, len(body))
		for k := range body {
			s[k] = struct{}{}
		}
		for _, p := range x.Params {
			delete(s, p)
		}
	case *If:
		s = c.Free(x.Test).Union(c.Free(x.Then)).Union(c.Free(x.Else))
	case *Set:
		s = c.Free(x.Rhs).Union(NewVarSet(x.Name))
	case *Call:
		s = VarSet{}
		for _, sub := range x.Exprs {
			s = s.Union(c.Free(sub))
		}
	case *Mon:
		s = c.Free(x.Ctc).Union(c.Free(x.Expr))
	}
	c.memo[e] = s
	return s
}

// FreeOfAll returns the union of FV over several expressions.
func (c *FreeVarCache) FreeOfAll(exprs []Expr) VarSet {
	s := VarSet{}
	for _, e := range exprs {
		s = s.Union(c.Free(e))
	}
	return s
}

// FreeSyms returns FV(e) as a sorted, deduplicated slice of interned
// symbols, memoized by node identity. The result is shared; callers must not
// mutate it.
func (c *FreeVarCache) FreeSyms(e Expr) []env.Symbol {
	if s, ok := c.symMemo[e]; ok {
		return s
	}
	fv := c.Free(e)
	s := make([]env.Symbol, 0, len(fv))
	for name := range fv {
		s = append(s, env.Intern(name))
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	c.symMemo[e] = s
	return s
}

// FreeSymsUnion returns FV(a) ∪ FV(b) as a sorted symbol slice. When one
// side is empty the other's memoized slice is returned as-is (do not mutate).
func (c *FreeVarCache) FreeSymsUnion(a, b Expr) []env.Symbol {
	return mergeSyms(c.FreeSyms(a), c.FreeSyms(b))
}

// FreeSymsAt returns the union of FV(exprs[i]) over i ∈ at as a sorted
// symbol slice (shared when the union is a single memoized set).
func (c *FreeVarCache) FreeSymsAt(exprs []Expr, at []int) []env.Symbol {
	var out []env.Symbol
	for _, i := range at {
		out = mergeSyms(out, c.FreeSyms(exprs[i]))
	}
	return out
}

// mergeSyms unions two sorted symbol slices; when one is empty the other is
// returned unchanged (so memoized sets flow through without copying).
func mergeSyms(a, b []env.Symbol) []env.Symbol {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]env.Symbol, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// FreeVars computes FV(e) without caching; convenience for tests and tools.
func FreeVars(e Expr) VarSet {
	return NewFreeVarCache().Free(e)
}
