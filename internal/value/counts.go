package value

import (
	"math"
	"sync"

	"tailspace/internal/env"
)

// This file is the arena's incremental GC rule: Reclaim frees exactly the
// cells Collect would, from reference counts kept up to date by the store's
// mutations and one register swap per collection, so a collection costs
// O(what changed) instead of O(live).
//
// The counted graph has three kinds of node. A cell is counted by location.
// An environment is counted per node (env.RibCounts: a rib of a shadow-free
// chain, or a shadowed chain's head), the way env.BindingCounts counts the
// Figure 8 binding union. A frame is counted (FrameCounts, on CollectorSlot)
// as the Figure 8 account counts it: it gains a reference from the κ
// register, from its predecessor and from each escape that retains it. So a
// collection costs the frames that entered and left κ since the last,
// however many transitions lie between them. Every edge is one the tracer
// follows: value.Locations for values, Parts.appendRoots for frames,
// AppendLocations for environments.
//
// Counts alone miss cycles, and an age argument confines them. Give a cell
// its location as age and an environment node the newest location its chain
// binds (env.Node.Age). A value stored by Alloc mentions only older nodes:
// its cells, closure environments and the frames an escape retains all
// existed before the cell, and a tag is younger than what its closure,
// escape or contract holds. Environments and frames are immutable and only
// refer to older objects. So every edge that does not lower the age is one
// a Store.Set (set!, set-car!, vector-set!, letrec initialisation) stored in
// a cell no younger than its target: the cell is a knot. The oldest node
// on any cycle is therefore a knot, and every node on the cycle lies
// between lo, the oldest live knot, and hi, the youngest node any live
// knot's value mentions.
//
// A collection swaps the registers, frees the cells whose count is zero
// (cascading on an explicit stack), and then looks for garbage cycles among
// the candidates: cells whose count fell since the last collection,
// environment nodes whose count fell but stayed positive, and knots written
// since. No increment takes a cell off the list, and a cell that fell to
// zero stays on it: the registers are counted only at collections, so a
// write may put a cell back on a cycle, or close a cycle through a knot,
// after the last reference from outside went, and nothing on that cycle is
// decremented again. The collection drops the candidates the age argument
// clears (outside [lo, hi], or cells that hold no reference) and those the
// environment register plainly holds, and runs synchronous trial deletion
// (Bacon and Rajan, ECOOP 2001) from the rest over the nodes inside
// [lo, hi]. Trial deletion does not walk frames. A frame whose count fell
// and stayed positive may lie on a garbage cycle, unless it is among the
// top liveFrames frames of the κ register, which are live: every ordinary
// pop, and every escape that dies while its frame is still near the top,
// lowers such a count. Any other fall, and trial deletion that meets a
// retained continuation or grows past a budget, gives up, and this one
// collection traces instead (Store.sweep). Collect stays the oracle: the
// tests check Reclaim against it collection by collection.

// CollectStats counts how Reclaim applied the GC rule on the arena.
type CollectStats struct {
	// Trials counts the collections that ran trial deletion.
	Trials int
	// Fallbacks counts the collections whose cycle check fell back to
	// tracing.
	Fallbacks int
}

// CollectStats reports how the store's Reclaim calls went.
func (s *Store) CollectStats() CollectStats { return s.stats }

// Reclaim applies the garbage collection rule to the configuration
// (v, ρ, κ, σ), freeing exactly the cells Collect would and returning how
// many. On the arena the first call traces and builds the reference-count
// account; later calls work from the counts. The map store traces every
// time.
func (s *Store) Reclaim(val Value, rho env.Env, k Cont) int {
	if s.m != nil {
		return s.Collect(val, rho, k)
	}
	if s.acct == nil {
		var n int
		s.acct, n = newCountAccount(s, val, rho, k)
		return n
	}
	return s.acct.collect(val, rho, k)
}

// Releaser is a store observer that keeps per-run tables worth reusing.
type Releaser interface {
	// Release hands the tables on to a later run; the observer rebuilds
	// them if it is used again.
	Release()
}

// Release ends the store's run: the count account Reclaim built, and the
// per-run tables of every observer that is a Releaser, go back to their
// pools for later runs. The store stays readable; Reclaim on it afterwards
// starts over with a trace.
func (s *Store) Release() {
	if s.acct != nil {
		s.acct.release()
		s.acct = nil
	}
	for _, o := range s.observers {
		if r, ok := o.(Releaser); ok {
			r.Release()
		}
	}
}

// Cell flags.
const (
	// cellKnot: the value mentions a node no older than the cell.
	cellKnot uint8 = 1 << iota
	// cellCand: listed as a trial-deletion candidate.
	cellCand
	cellGray
	cellWhite
	// cellListed: the cell has an entry in the knot list.
	cellListed
)

// edgeOp is what a walk over a node's references does with each.
type edgeOp uint8

const (
	opAcquire edgeOp = iota
	opRelease
	// Trial deletion (Bacon and Rajan's MarkGray, Scan, ScanBlack and
	// CollectWhite), and opUnmark, which undoes MarkGray's decrements when
	// trial deletion gives up. They act on the references inside [lo, hi].
	opMarkGray
	opScan
	opScanBlack
	opCollectWhite
	opUnmark
	// opReleaseOut releases the references outside [lo, hi] of a node that
	// trial deletion frees.
	opReleaseOut
)

// trialNode is a cell, or an environment node when env is not zero.
type trialNode struct {
	cell env.Location
	env  env.Node
}

// accountPool keeps released accounts, so a run reuses an earlier run's
// tables instead of allocating and regrowing its own.
var accountPool = sync.Pool{New: func() any { return newEmptyAccount() }}

// countAccount is Reclaim's reference-count account for one store (see the
// comment at the top of this file). Its frames are counted on CollectorSlot,
// κ's among them.
type countAccount struct {
	s      *Store
	rc     []int32 // per location ever allocated
	flags  []uint8 // per location
	envs   *env.RibCounts
	frames *FrameCounts
	// The registers the counts hold.
	val Value
	rho env.Env
	k   Cont

	zct       []env.Location // cells whose count reached zero, and new cells
	cands     []env.Location
	envCands  []env.Node
	frameFell bool // a frame off κ's top fell and stayed positive

	knots      []env.Location // cells flagged cellKnot, and stale entries
	lo, hi     env.Location
	knotsStale bool // a knot went away: lo and hi may be loose

	// Trial deletion state.
	roots    []trialNode
	stack    []trialNode
	blacken  []trialNode
	marked   []trialNode
	envColor map[env.Node]uint8
	abort    bool
	bindOp   edgeOp
	bindEdge func(env.Symbol, env.Location)
}

func newEmptyAccount() *countAccount {
	a := &countAccount{envColor: make(map[env.Node]uint8)}
	a.envs = env.NewRibCounts(
		func(_ env.Symbol, l env.Location) { a.inc(l) },
		func(_ env.Symbol, l env.Location) { a.dec(l) },
		func(n env.Node) { a.envCands = append(a.envCands, n) })
	a.frames = NewFrameCounts(CollectorSlot,
		func(k Cont) { a.partsEdges(k, opAcquire) },
		func(k Cont) { a.partsEdges(k, opRelease) },
		func(k Cont) {
			if !a.nearTop(k) {
				a.frameFell = true
			}
		})
	a.bindEdge = func(_ env.Symbol, l env.Location) { a.cellEdge(l, a.bindOp) }
	return a
}

// newCountAccount applies the GC rule to s by tracing from the
// configuration (val, rho, k), then counts what the trace left: the cells'
// references and the registers, κ's frames among them. It returns the
// account and the number of cells the trace freed.
func newCountAccount(s *Store, val Value, rho env.Env, k Cont) (*countAccount, int) {
	a := accountPool.Get().(*countAccount)
	a.s, a.val, a.rho, a.k = s, val, rho, k
	freed := a.trace()
	a.lo, a.hi = math.MaxInt, -1
	a.grow(len(s.vals))
	for _, l := range s.live {
		a.valueEdges(s.vals[l], opAcquire)
	}
	for _, l := range s.live {
		a.noteKnot(l, s.vals[l])
	}
	a.valueEdges(val, opAcquire)
	a.envEdge(rho.Node(), opAcquire)
	a.frames.Acquire(k)
	return a, freed
}

// release empties the account into the pool.
func (a *countAccount) release() {
	a.s, a.val, a.rho, a.k = nil, nil, env.Env{}, nil
	a.rc, a.flags = a.rc[:0], a.flags[:0]
	a.envs.Reset()
	a.frames.Reset()
	a.zct, a.cands, a.envCands, a.knots = a.zct[:0], a.cands[:0], a.envCands[:0], a.knots[:0]
	a.frameFell, a.knotsStale = false, false
	accountPool.Put(a)
}

// grow extends the per-location tables to cover n locations.
func (a *countAccount) grow(n int) {
	for len(a.rc) < n {
		a.rc = append(a.rc, 0)
		a.flags = append(a.flags, 0)
	}
}

func (a *countAccount) live(l env.Location) bool { return a.s.slot[l] >= 0 }

// valid reports whether l names an allocated location.
func (a *countAccount) valid(l env.Location) bool { return l >= 0 && int(l) < len(a.rc) }

func (a *countAccount) inc(l env.Location) {
	if a.valid(l) {
		a.rc[l]++
	}
}

// dec drops a reference to l. A cell whose count reaches zero enters the
// zero-count table, and every cell whose count fell is a candidate.
func (a *countAccount) dec(l env.Location) {
	if !a.valid(l) {
		return
	}
	a.rc[l]--
	if a.rc[l] == 0 {
		a.zct = append(a.zct, l)
	}
	a.candidate(l)
}

// candidate lists l for the next cycle check, once.
func (a *countAccount) candidate(l env.Location) {
	if a.flags[l]&cellCand == 0 {
		a.flags[l] |= cellCand
		a.cands = append(a.cands, l)
	}
}

// alloc counts a new cell holding v. It starts at zero, in the zero-count
// table, until something counted refers to it.
func (a *countAccount) alloc(l env.Location, v Value) {
	a.grow(int(l) + 1)
	a.valueEdges(v, opAcquire)
	a.zct = append(a.zct, l)
	if a.noteKnot(l, v) {
		a.candidate(l)
	}
}

// set counts σ(l) replaced by v. A knot's write may close a cycle that
// nothing decrements later, so the knot is a candidate itself.
func (a *countAccount) set(l env.Location, old, v Value) {
	a.valueEdges(v, opAcquire)
	a.valueEdges(old, opRelease)
	if a.noteKnot(l, v) {
		a.candidate(l)
	}
}

// gone releases what a cell removed from the store held (a Z_stack
// deletion, or a cell the tracer freed).
func (a *countAccount) gone(l env.Location, v Value) {
	a.unflag(l)
	a.valueEdges(v, opRelease)
}

// unflag clears a removed cell's flags.
func (a *countAccount) unflag(l env.Location) {
	if a.flags[l]&cellKnot != 0 {
		a.knotsStale = true
	}
	a.flags[l] = 0
}

// noteKnot flags l as a knot while its value v mentions a node no older
// than l, and reports whether it does.
func (a *countAccount) noteKnot(l env.Location, v Value) bool {
	top := maxAge(v)
	if top < l {
		if a.flags[l]&cellKnot != 0 {
			a.flags[l] &^= cellKnot
			a.knotsStale = true
		}
		return false
	}
	if a.flags[l]&cellListed == 0 {
		a.knots = append(a.knots, l)
	}
	a.flags[l] |= cellKnot | cellListed
	a.lo, a.hi = min(a.lo, l), max(a.hi, top)
	return true
}

// refreshKnots recomputes [lo, hi] from the live knots once one has gone.
func (a *countAccount) refreshKnots() {
	if !a.knotsStale {
		return
	}
	a.knotsStale = false
	a.lo, a.hi = math.MaxInt, -1
	kept := a.knots[:0]
	for _, l := range a.knots {
		if a.flags[l]&cellKnot == 0 {
			a.flags[l] &^= cellListed
			continue
		}
		kept = append(kept, l)
		a.lo, a.hi = min(a.lo, l), max(a.hi, maxAge(a.s.vals[l]))
	}
	a.knots = kept
}

// maxAge is the age of the youngest node v refers to, or -1.
func maxAge(v Value) env.Location {
	switch x := v.(type) {
	case Pair:
		return max(x.CarLoc, x.CdrLoc)
	case Vector:
		top := env.Location(-1)
		for _, l := range x.ElemLocs {
			top = max(top, l)
		}
		return top
	case Closure:
		return max(x.Tag, x.Env.Node().Age())
	case Escape:
		// The continuation existed before call/cc allocated the tag.
		return x.Tag
	case *ArrowContract:
		top := max(x.Tag, maxAge(x.Cod))
		for _, d := range x.Dom {
			top = max(top, maxAge(d))
		}
		return top
	case Guarded:
		return max(x.Tag, maxAge(x.Proc), maxAge(x.Ctc))
	}
	return -1
}

// collect applies the GC rule from the counts.
func (a *countAccount) collect(val Value, rho env.Env, k Cont) int {
	a.swap(val, rho, k)
	freed := a.drain()
	tried := false
	for len(a.cands) > 0 || len(a.envCands) > 0 || a.frameFell {
		n, ok := a.cycles()
		if !ok {
			a.s.stats.Fallbacks++
			return freed + a.trace()
		}
		if n < 0 {
			break
		}
		tried = true
		freed += n + a.drain()
	}
	if tried {
		a.s.stats.Trials++
	}
	return freed
}

// swap moves the register references to (val, rho, k): the new registers
// are held before the old ones are let go, so what they share never drops
// to zero, and a move of κ costs only the frames that entered and left it.
// The registers change first, so the fell hook judges against the new κ.
func (a *countAccount) swap(val Value, rho env.Env, k Cont) {
	oldVal, oldRho, oldK := a.val, a.rho, a.k
	a.val, a.rho, a.k = val, rho, k
	sameVal := sameRefs(val, oldVal)
	if !sameVal {
		a.valueEdges(val, opAcquire)
	}
	if rho != oldRho {
		a.envEdge(rho.Node(), opAcquire)
	}
	if k != oldK {
		a.frames.Acquire(k)
		a.frames.Release(oldK)
	}
	if !sameVal {
		a.valueEdges(oldVal, opRelease)
	}
	if rho != oldRho {
		a.envEdge(oldRho.Node(), opRelease)
	}
}

// liveFrames is how deep below the κ register's top a frame whose count
// fell is still taken for live without a trace. It covers every pop between
// collections at GCEvery up to 7, and the frame of an escape captured a
// few transitions before it dies.
const liveFrames = 8

// nearTop reports whether k is among the top liveFrames frames of the κ
// register, which the register holds.
func (a *countAccount) nearTop(k Cont) bool {
	f := a.k
	for i := 0; i < liveFrames && f != nil; i++ {
		if f == k {
			return true
		}
		f = f.Next()
	}
	return false
}

// sameRefs reports whether two register values are one value as far as its
// references go, so a swap between them changes no count.
func sameRefs(x, y Value) bool {
	switch a := x.(type) {
	case nil, Bool, Num, Sym, Str, Char, Null, Unspecified, Undefined, *Primop:
		return maxAge(y) < 0
	case Closure:
		b, ok := y.(Closure)
		return ok && a.Tag == b.Tag
	case Escape:
		b, ok := y.(Escape)
		return ok && a.Tag == b.Tag
	case Pair:
		b, ok := y.(Pair)
		return ok && a == b
	case Vector:
		b, ok := y.(Vector)
		return ok && len(a.ElemLocs) == len(b.ElemLocs) &&
			(len(a.ElemLocs) == 0 || &a.ElemLocs[0] == &b.ElemLocs[0])
	case *ArrowContract:
		b, ok := y.(*ArrowContract)
		return ok && a == b
	case Guarded:
		b, ok := y.(Guarded)
		return ok && a.Tag == b.Tag
	}
	return false
}

// drain frees every cell in the zero-count table whose count is still zero,
// and what that frees in turn, and returns how many cells it freed.
func (a *countAccount) drain() int {
	freed := 0
	for len(a.zct) > 0 {
		l := a.zct[len(a.zct)-1]
		a.zct = a.zct[:len(a.zct)-1]
		if a.rc[l] != 0 || !a.live(l) {
			continue
		}
		a.s.free(l)
		freed++
	}
	return freed
}

// trace applies the GC rule by tracing from the registers the account
// holds; the cells it frees release what they held through gone. No
// garbage is left, so no candidate stays interesting.
func (a *countAccount) trace() int {
	ep := env.NewEpoch()
	roots := Locations(a.val, ep, a.s.gcStack[:0])
	roots = a.rho.AppendLocations(ep, roots)
	n := a.s.sweep(ep, ContLocations(a.k, ep, roots))
	a.zct = a.zct[:0]
	a.clearCands()
	return n
}

func (a *countAccount) clearCands() {
	for _, l := range a.cands {
		a.flags[l] &^= cellCand
	}
	a.cands, a.envCands, a.frameFell = a.cands[:0], a.envCands[:0], false
}

// valueEdges applies op to every reference v holds, the ones
// value.Locations lists.
func (a *countAccount) valueEdges(v Value, op edgeOp) {
	switch x := v.(type) {
	case Pair:
		a.cellEdge(x.CarLoc, op)
		a.cellEdge(x.CdrLoc, op)
	case Vector:
		for _, l := range x.ElemLocs {
			a.cellEdge(l, op)
		}
	case Closure:
		a.cellEdge(x.Tag, op)
		a.envEdge(x.Env.Node(), op)
	case Escape:
		a.cellEdge(x.Tag, op)
		a.frameEdge(x.K, x.Tag, op)
	case *ArrowContract:
		a.cellEdge(x.Tag, op)
		for _, d := range x.Dom {
			a.valueEdges(d, op)
		}
		a.valueEdges(x.Cod, op)
	case Guarded:
		a.cellEdge(x.Tag, op)
		a.valueEdges(x.Proc, op)
		a.valueEdges(x.Ctc, op)
	}
}

// partsEdges applies op to every reference frame k holds, the ones
// Parts.appendRoots lists (its next frame aside).
func (a *countAccount) partsEdges(k Cont, op edgeOp) {
	p := k.Parts()
	if !p.Dead || RootReturnEnvironments {
		a.envEdge(p.Env.Node(), op)
	}
	for _, l := range p.Del {
		a.cellEdge(l, op)
	}
	if p.Val != nil {
		a.valueEdges(p.Val, op)
	}
	for _, v := range p.Vals {
		a.valueEdges(v, op)
	}
	for _, c := range p.Checks {
		a.valueEdges(c.Ctc, op)
		a.valueEdges(c.Src, op)
	}
}

// children applies op to the references n holds.
func (a *countAccount) children(n trialNode, op edgeOp) {
	if n.env.IsZero() {
		a.valueEdges(a.s.vals[n.cell], op)
		return
	}
	a.bindOp = op
	n.env.EachBinding(a.bindEdge)
	a.envEdge(n.env.Up(), op)
}

func (a *countAccount) inRegion(age env.Location) bool { return a.lo <= age && age <= a.hi }

func (a *countAccount) cellEdge(l env.Location, op edgeOp) {
	switch op {
	case opAcquire:
		a.inc(l)
	case opRelease:
		a.dec(l)
	default:
		a.trialEdge(trialNode{cell: l}, a.valid(l) && a.inRegion(l) && a.live(l), op)
	}
}

func (a *countAccount) envEdge(e env.Node, op edgeOp) {
	if e.IsZero() {
		return
	}
	switch op {
	case opAcquire:
		a.envs.AcquireNode(e)
	case opRelease:
		a.envs.ReleaseNode(e)
	default:
		a.trialEdge(trialNode{env: e}, a.inRegion(e.Age()), op)
	}
}

// trialEdge applies a trial-deletion op to a reference to n, which lies
// inside [lo, hi] when in is set.
func (a *countAccount) trialEdge(n trialNode, in bool, op edgeOp) {
	if op == opReleaseOut {
		if !in {
			a.releaseRef(n)
		}
		return
	}
	if !in {
		return
	}
	switch c := a.color(n); op {
	case opMarkGray:
		a.trialCount(n, -1)
		if c != cellGray {
			a.setColor(n, cellGray)
			a.stack = append(a.stack, n)
		}
	case opScan:
		if c == cellGray {
			a.stack = append(a.stack, n)
		}
	case opScanBlack:
		a.trialCount(n, 1)
		if c != 0 {
			a.setColor(n, 0)
			a.blacken = append(a.blacken, n)
		}
	case opCollectWhite:
		if c == cellWhite {
			a.setColor(n, 0)
			a.stack = append(a.stack, n)
		}
	case opUnmark:
		a.trialCount(n, 1)
	}
}

// frameEdge applies op to a frame an escape tagged tag retains. The frame
// is no younger than the tag, so trial deletion may skip it when the tag is
// below lo; inside [lo, hi] it gives up instead of walking the frames.
func (a *countAccount) frameEdge(k Cont, tag env.Location, op edgeOp) {
	switch op {
	case opAcquire:
		a.frames.Acquire(k)
	case opRelease:
		a.frames.Release(k)
	case opReleaseOut:
		if !a.inRegion(tag) {
			a.frames.Release(k)
		}
	case opMarkGray:
		if a.inRegion(tag) {
			a.abort = true
		}
	}
}

// color is n's trial-deletion colour: cellGray, cellWhite, or 0 for black.
func (a *countAccount) color(n trialNode) uint8 {
	if n.env.IsZero() {
		return a.flags[n.cell] & (cellGray | cellWhite)
	}
	return a.envColor[n.env]
}

func (a *countAccount) setColor(n trialNode, c uint8) {
	switch {
	case n.env.IsZero():
		a.flags[n.cell] = a.flags[n.cell]&^(cellGray|cellWhite) | c
	case c == 0:
		delete(a.envColor, n.env)
	default:
		a.envColor[n.env] = c
	}
}

func (a *countAccount) count(n trialNode) int32 {
	if n.env.IsZero() {
		return a.rc[n.cell]
	}
	return a.envs.Count(n.env)
}

// trialCount adds delta to n's count without cascading.
func (a *countAccount) trialCount(n trialNode, delta int32) {
	if n.env.IsZero() {
		a.rc[n.cell] += delta
	} else {
		a.envs.Adjust(n.env, delta)
	}
}

// releaseRef drops one reference to n, cascading as any release does.
func (a *countAccount) releaseRef(n trialNode) {
	if n.env.IsZero() {
		a.dec(n.cell)
	} else {
		a.envs.ReleaseNode(n.env)
	}
}

// holds reports whether the environment register plainly holds e: e is
// the register's node or a shadow-free ancestor of it.
func (a *countAccount) holds(e env.Node) bool {
	age := e.Age()
	for n := a.rho.Node(); !n.IsZero() && n.Age() >= age; n = n.Up() {
		if n == e {
			return true
		}
	}
	return false
}

// binds reports whether a node the environment register holds binds l.
func (a *countAccount) binds(l env.Location) bool {
	for n := a.rho.Node(); !n.IsZero() && n.Age() >= l; n = n.Up() {
		if n.Binds(l) {
			return true
		}
	}
	return false
}

// cycles runs one round of trial deletion from the candidates the age
// argument and the environment register do not clear. It returns the cells
// it freed (-1 when no candidate was left to try), and ok false when it
// gave up, having restored every count, so that the caller traces.
func (a *countAccount) cycles() (freed int, ok bool) {
	a.refreshKnots()
	if a.frameFell && a.lo <= a.hi {
		a.clearCands()
		return 0, false
	}
	a.frameFell = false
	a.roots = a.roots[:0]
	for _, l := range a.cands {
		if a.flags[l]&cellCand == 0 {
			continue
		}
		a.flags[l] &^= cellCand
		if a.inRegion(l) && a.live(l) && a.rc[l] > 0 && maxAge(a.s.vals[l]) >= 0 && !a.binds(l) {
			a.roots = append(a.roots, trialNode{cell: l})
		}
	}
	for _, e := range a.envCands {
		if a.inRegion(e.Age()) && !a.holds(e) && a.envs.Count(e) > 0 {
			a.roots = append(a.roots, trialNode{env: e})
		}
	}
	a.cands, a.envCands = a.cands[:0], a.envCands[:0]
	if len(a.roots) == 0 {
		return -1, true
	}

	// MarkGray, within a budget past which tracing is the cheaper check.
	budget := len(a.s.live)/2 + 64
	a.stack, a.marked = a.stack[:0], a.marked[:0]
	for _, r := range a.roots {
		if a.color(r) != cellGray {
			a.setColor(r, cellGray)
			a.stack = append(a.stack, r)
		}
	}
	for len(a.stack) > 0 && !a.abort {
		n := a.stack[len(a.stack)-1]
		a.stack = a.stack[:len(a.stack)-1]
		a.marked = append(a.marked, n)
		a.children(n, opMarkGray)
		if len(a.marked) > budget {
			a.abort = true
		}
	}
	if a.abort {
		for _, n := range a.marked {
			a.children(n, opUnmark)
		}
		for _, n := range a.marked {
			a.setColor(n, 0)
		}
		for _, n := range a.stack {
			a.setColor(n, 0)
		}
		a.stack, a.abort = a.stack[:0], false
		return 0, false
	}

	// Scan: a gray node with a count left is held from outside and blackens
	// what it reaches; the rest turn white.
	for _, r := range a.roots {
		a.stack = append(a.stack[:0], r)
		for len(a.stack) > 0 {
			n := a.stack[len(a.stack)-1]
			a.stack = a.stack[:len(a.stack)-1]
			if a.color(n) != cellGray {
				continue
			}
			if a.count(n) > 0 {
				a.setColor(n, 0)
				a.blacken = append(a.blacken[:0], n)
				for len(a.blacken) > 0 {
					m := a.blacken[len(a.blacken)-1]
					a.blacken = a.blacken[:len(a.blacken)-1]
					a.children(m, opScanBlack)
				}
				continue
			}
			a.setColor(n, cellWhite)
			a.children(n, opScan)
		}
	}

	// CollectWhite: free the white nodes. Their references inside [lo, hi]
	// were taken back by MarkGray; the ones outside are released now.
	for _, r := range a.roots {
		if a.color(r) != cellWhite {
			continue
		}
		a.setColor(r, 0)
		a.stack = append(a.stack[:0], r)
		for len(a.stack) > 0 {
			n := a.stack[len(a.stack)-1]
			a.stack = a.stack[:len(a.stack)-1]
			a.children(n, opCollectWhite)
			a.children(n, opReleaseOut)
			if !n.env.IsZero() {
				a.envs.Forget(n.env)
				continue
			}
			a.unflag(n.cell)
			a.s.drop(n.cell)
			freed++
		}
	}
	return freed, true
}
