package value

import (
	"tailspace/internal/ast"
	"tailspace/internal/env"
)

// Cont is a continuation κ of Figure 4:
//
//	κ ::= halt
//	    | select:(E1, E2, ρ, κ)
//	    | assign:(I, ρ, κ)
//	    | push:((E,...), (v,...), π, ρ, κ)
//	    | call:((v,...), κ)
//	    | return:(ρ, κ)        (Z_gc only)
//	    | return:(A, ρ, κ)     (Z_stack only)
//
// Each frame kind states what it holds once, in Parts. The GC rule
// (ContLocations), both space meters and MTA compression read frames only
// through Parts, Next and WithNext; only the machine's continuation rules
// and the peak report's frame names switch on the kind. A type without
// Parts is not a Cont, so no frame kind can go unpriced or unrooted.
type Cont interface {
	// Next returns the saved continuation, or nil for halt.
	Next() Cont
	// WithNext returns a copy of the frame over next; halt, which has no
	// successor, returns itself.
	WithNext(next Cont) Cont
	// Parts returns what the frame holds. It must not allocate: the meters
	// and the collector call it on every frame that joins a continuation
	// they track.
	Parts() Parts
	// handles returns the frame's count handles, or nil for halt, a value
	// with no identity of its own (see FrameCounts).
	handles() *frameHandles
}

// frameHandles is the pair of count handles every frame but halt carries,
// one per FrameSlot: the index of the frame's entry in the table of the
// FrameCounts counting on that slot. A handle is only a hint: the entry
// counts for the frame only while it points back at this pair, so a handle
// left by an earlier run, a reset account or the frame a WithNext copy was
// made from reads as unheld.
type frameHandles [numFrameSlots]uint32

func (h *frameHandles) handles() *frameHandles { return h }

// Parts is what one continuation frame holds, in the terms the paper reads
// a frame by: Figure 7 charges 1 + m + n + |Dom ρ| (a header, the pending
// code, the held values and the saved environment's bindings), Figure 8
// the same less |Dom ρ|, whose bindings join the global set, and the GC
// rule roots every location the frame mentions except in a dead
// environment.
type Parts struct {
	// Env is the saved environment ρ; the zero Env when the frame saves
	// none.
	Env env.Env
	// Dead marks a saved environment no rule ever dereferences, as in the
	// two return frames: the next frame restores its own (Section 8: "these
	// rules waste space for no reason"). Figure 7 charges it (1 + |Dom ρ|),
	// but it is not a root, which is what keeps Z_gc free of the Theorem
	// 25(a) blowup that Z_stack's A-retention causes.
	Dead bool
	// Code counts the unit words besides the header: the expressions a push
	// frame has still to evaluate, mon-ctc's monitored expression and
	// mon-dom's argument index. Code addresses the static program, not the
	// store, so no model scales it.
	Code int
	// Val and Vals are the values the frame holds, one reference word each:
	// Val a single value (nil when the frame holds none), Vals a list.
	Val  Value
	Vals []Value
	// Checks are pending contract checks, each a unit word (its label) and
	// a reference word. Both Ctc and Src are roots: the space-efficient
	// join dedups by Src's tag location, which a collected-and-reused cell
	// would alias.
	Checks []Pending
	// Del is Z_stack's deletion set A. It roots its locations, so a stack
	// frame keeps its variables alive until it returns; this retention, not
	// the deletion itself, is what makes Z_stack asymptotically worse than
	// a garbage collector (Section 5, Theorem 25(a)).
	Del []env.Location
}

// Halt is the initial continuation.
type Halt struct{}

// Select is select:(E1, E2, ρ, κ) — awaiting the test value of an if.
type Select struct {
	Then, Else ast.Expr
	Env        env.Env
	K          Cont

	frameHandles
}

// Assign is assign:(I, ρ, κ) — awaiting the right-hand side of a set!.
type Assign struct {
	Name string
	// Sym is the interned Name, the key the assignment resolves in Env.
	Sym env.Symbol
	Env env.Env
	K   Cont

	frameHandles
}

// Push is push:((E,...), (v,...), π, ρ, κ) — evaluating the subexpressions
// of a procedure call. The push frames of one call evaluation share one
// PushRecord; a frame holding N values sees the record's first N and awaits
// the value of subexpression π(N). A push transition therefore builds one
// frame and copies nothing, and a frame's Parts are fixed when it is built
// (see PushRecord).
type Push struct {
	// Rec is the call evaluation's record and N the number of its values
	// the frame holds.
	Rec *PushRecord
	N   int
	Env env.Env
	K   Cont

	frameHandles
}

// PushRecord is what the push frames of one call evaluation share: the
// call's subexpressions, π and the values delivered so far in evaluation
// order. The value buffer is append-once: slots below the written count
// never change, and a frame holding N values delivers into slot N only
// while no frame has written it. A second delivery to the same frame, which
// happens when an escape re-enters it or when a WithNext copy and its
// original are both resumed, copies the first N values into a fresh record
// instead, so the frames built on the first delivery keep theirs.
type PushRecord struct {
	// Exprs are the call's subexpressions in source order, the AST's own
	// slice.
	Exprs []ast.Expr
	// Pi is π: Pi[i] is the source position of the i-th subexpression
	// evaluated. The fixed orders share one read-only table.
	Pi []int
	// vals holds the delivered values in evaluation order; the first
	// filled of them are written.
	vals   []Value
	filled int
	// inline backs vals for calls of up to four subexpressions, so the
	// record and its buffer are one allocation.
	inline [4]Value
}

// NewPush returns the push frame of a call over exprs, evaluated in the
// order pi, that holds the values done (in evaluation order) and awaits the
// value of exprs[pi[len(done)]].
func NewPush(exprs []ast.Expr, pi []int, done []Value, rho env.Env, k Cont) *Push {
	r := newPushRecord(exprs, pi)
	r.filled = copy(r.vals, done)
	return &Push{Rec: r, N: r.filled, Env: rho, K: k}
}

func newPushRecord(exprs []ast.Expr, pi []int) *PushRecord {
	r := &PushRecord{Exprs: exprs, Pi: pi}
	if len(pi) <= len(r.inline) {
		r.vals = r.inline[:len(pi)]
	} else {
		r.vals = make([]Value, len(pi))
	}
	return r
}

// Deliver records v as the value of the subexpression k awaits and returns
// the record that holds k's values followed by v: k's own record on the
// first delivery into that slot, a fresh copy of k's values after that.
func (k *Push) Deliver(v Value) *PushRecord {
	r := k.Rec
	if r.filled != k.N {
		c := newPushRecord(r.Exprs, r.Pi)
		copy(c.vals, r.vals[:k.N])
		r = c
	}
	r.vals[k.N] = v
	r.filled = k.N + 1
	return r
}

// Values returns the call's values in source order once every
// subexpression's value has been delivered. Under the identity π it is the
// record's own buffer, which no later delivery writes.
func (r *PushRecord) Values() []Value {
	for i, p := range r.Pi {
		if p != i {
			vals := make([]Value, len(r.vals))
			for j, q := range r.Pi {
				vals[q] = r.vals[j]
			}
			return vals
		}
	}
	return r.vals
}

// Call is call:((v1,...,vm), κ) — the operands are ready and the machine is
// delivering the operator value.
type Call struct {
	Args []Value
	K    Cont

	frameHandles
}

// Return is return:(ρ, κ), the continuation Z_gc pushes on every procedure
// call (Section 8): it wastes space for no reason, making Z_gc improperly
// tail recursive.
type Return struct {
	Env env.Env
	K   Cont

	frameHandles
}

// ReturnStack is return:(A, ρ, κ), the continuation Z_stack pushes. The
// locations in Del are deleted from the store when the continuation is
// invoked — an Algol-like deletion strategy. If a deleted location is still
// referenced the computation is stuck (a dangling pointer).
type ReturnStack struct {
	Del []env.Location
	Env env.Env
	K   Cont

	frameHandles
}

// MonCtc is mon-ctc:(E, ρ, l, κ) — evaluating the contract expression of a
// (mon ctc E) form; the monitored expression E and its environment wait in
// the frame.
type MonCtc struct {
	Expr  ast.Expr
	Label string
	Env   env.Env
	K     Cont

	frameHandles
}

// MonAttach is mon-attach:(v_ctc, l, κ) — the contract is ready and the
// machine is evaluating the monitored expression. On the monitor machines the
// delivered value is checked (flat) or wrapped (arrow); everywhere else it
// passes through unchanged.
type MonAttach struct {
	Ctc   Value
	Label string
	K     Cont

	frameHandles
}

// Pending is one deferred contract check: the contract a result must satisfy
// and the label blamed if it does not. Src is the attach-time contract the
// check descends from (the whole arrow, for a codomain check): two pending
// checks are duplicates exactly when they came from the *same monitor* with
// the same blame, so the space-efficient join dedups by Src's identity —
// codomain predicates are routinely shared (number? is one primop), their
// identity says nothing about which monitor is checking.
type Pending struct {
	Ctc   Value
	Src   Value
	Label string
}

// MonDom is mon-dom:(g, (v,...), i, κ) — a guarded application checking its
// arguments: the frame awaits the verdict of Ctc.Dom[Idx] applied to
// Args[Idx]. A true verdict resumes the application at the next argument; #f
// blames the caller.
type MonDom struct {
	// G is the Guarded being applied, kept as the Value the call received
	// so Parts hands it on without boxing it again.
	G    Value
	Args []Value
	Idx  int
	K    Cont

	frameHandles
}

// MonCod is mon-cod:((κ_ctc, l) ..., κ) — the monitor frame proper: the
// codomain checks pending for the value this continuation will receive. The
// naive monitor pushes a fresh MonCod on every guarded call, breaking tail
// recursion (one frame per recursion level, Greenberg's Θ(n)); the
// space-efficient monitor joins a new check into an existing top MonCod
// frame, dropping duplicates, so monitoring occupies bounded space per
// continuation.
type MonCod struct {
	Pend []Pending
	K    Cont

	frameHandles
}

// MonChk is mon-chk:(v, (κ_ctc, l) ..., l, κ) — awaiting a flat predicate's
// verdict on Val; Rest holds the checks still pending on the same value. A
// true verdict continues with Rest (or delivers Val); #f blames Label.
type MonChk struct {
	Val   Value
	Rest  []Pending
	Label string
	K     Cont

	frameHandles
}

func (Halt) handles() *frameHandles { return nil }

func (Halt) Next() Cont           { return nil }
func (k *Select) Next() Cont      { return k.K }
func (k *Assign) Next() Cont      { return k.K }
func (k *Push) Next() Cont        { return k.K }
func (k *Call) Next() Cont        { return k.K }
func (k *Return) Next() Cont      { return k.K }
func (k *ReturnStack) Next() Cont { return k.K }
func (k *MonCtc) Next() Cont      { return k.K }
func (k *MonAttach) Next() Cont   { return k.K }
func (k *MonDom) Next() Cont      { return k.K }
func (k *MonCod) Next() Cont      { return k.K }
func (k *MonChk) Next() Cont      { return k.K }

func (h Halt) WithNext(Cont) Cont              { return h }
func (k *Select) WithNext(next Cont) Cont      { c := *k; c.K = next; return &c }
func (k *Assign) WithNext(next Cont) Cont      { c := *k; c.K = next; return &c }
func (k *Push) WithNext(next Cont) Cont        { c := *k; c.K = next; return &c }
func (k *Call) WithNext(next Cont) Cont        { c := *k; c.K = next; return &c }
func (k *Return) WithNext(next Cont) Cont      { c := *k; c.K = next; return &c }
func (k *ReturnStack) WithNext(next Cont) Cont { c := *k; c.K = next; return &c }
func (k *MonCtc) WithNext(next Cont) Cont      { c := *k; c.K = next; return &c }
func (k *MonAttach) WithNext(next Cont) Cont   { c := *k; c.K = next; return &c }
func (k *MonDom) WithNext(next Cont) Cont      { c := *k; c.K = next; return &c }
func (k *MonCod) WithNext(next Cont) Cont      { c := *k; c.K = next; return &c }
func (k *MonChk) WithNext(next Cont) Cont      { c := *k; c.K = next; return &c }

func (Halt) Parts() Parts           { return Parts{} }
func (k *Select) Parts() Parts      { return Parts{Env: k.Env} }
func (k *Assign) Parts() Parts      { return Parts{Env: k.Env} }
func (k *Call) Parts() Parts        { return Parts{Vals: k.Args} }
func (k *Return) Parts() Parts      { return Parts{Env: k.Env, Dead: true} }
func (k *ReturnStack) Parts() Parts { return Parts{Env: k.Env, Dead: true, Del: k.Del} }
func (k *MonCtc) Parts() Parts      { return Parts{Env: k.Env, Code: 1} }
func (k *MonAttach) Parts() Parts   { return Parts{Val: k.Ctc} }
func (k *MonDom) Parts() Parts      { return Parts{Code: 1, Val: k.G, Vals: k.Args} }
func (k *MonCod) Parts() Parts      { return Parts{Checks: k.Pend} }
func (k *MonChk) Parts() Parts      { return Parts{Val: k.Val, Checks: k.Rest} }

// Parts reads a push frame through its record: the first N values, and the
// len(π) − N − 1 expressions left to evaluate after the one it awaits.
func (k *Push) Parts() Parts {
	return Parts{Env: k.Env, Code: len(k.Rec.Pi) - k.N - 1, Vals: k.Rec.vals[:k.N:k.N]}
}

// RootReturnEnvironments is an ablation switch for the experiments: when
// true, the dead saved environments of both return continuations
// (Parts.Dead) are treated as GC roots (the maximally literal reading of
// the garbage collection rule).
// Under that reading Z_gc retains everything Z_stack retains and the paper's
// Theorem 25(a) separation collapses — which is exactly why the default is
// the charged-but-dead reading (see DESIGN.md). Only the ablation experiment
// flips this, single-threaded.
var RootReturnEnvironments = false

// ContLocations appends the store locations occurring within κ: each
// frame's roots (Parts.appendRoots). Saved environments are enumerated under
// ep (see env.Epoch): under one epoch a rib already delivered is not walked
// again, so the frames of a deep recursion, which all end in ρ0, cost
// O(frames + ribs) rather than O(frames × |ρ|).
func ContLocations(k Cont, ep env.Epoch, out []env.Location) []env.Location {
	for ; k != nil; k = k.Next() {
		p := k.Parts()
		out = p.appendRoots(ep, out)
	}
	return out
}

// appendRoots appends the locations a frame with these parts roots: its
// saved environment unless it is dead, its deletion set, its held values and
// its pending checks.
func (p *Parts) appendRoots(ep env.Epoch, out []env.Location) []env.Location {
	if !p.Dead || RootReturnEnvironments {
		out = p.Env.AppendLocations(ep, out)
	}
	if len(p.Del) > 0 {
		out = append(out, p.Del...)
	}
	if p.Val != nil {
		out = Locations(p.Val, ep, out)
	}
	for _, v := range p.Vals {
		out = Locations(v, ep, out)
	}
	for _, c := range p.Checks {
		out = Locations(c.Ctc, ep, out)
		out = Locations(c.Src, ep, out)
	}
	return out
}

// Depth returns the number of continuation frames below κ, halt included.
// It is a diagnostic ("control stack depth"), not a space measure.
func Depth(k Cont) int {
	n := 0
	for k != nil {
		n++
		k = k.Next()
	}
	return n
}

// Moved compares k with last, the continuation an earlier look saw, and
// reports how κ moved in between: fresh frames of k sit above the point
// where k rejoins last, or last.Next() when popped is set (last's top frame
// left). A transition of Figure 5 pushes, pops or replaces at most the top
// frame, and several pushes between two looks are found too. When k rejoins
// neither, as after an escape, MTA compression or two pops between looks,
// ok is false and fresh counts every frame of k: whoever follows κ starts
// over from k. A nil last is the empty continuation, which every k rejoins
// at its end. The walk stops where k rejoins, so it reads fresh + 1 frames,
// or all of k on a jump.
func Moved(last, k Cont) (fresh int, popped, ok bool) {
	var below Cont
	if last != nil {
		below = last.Next()
	}
	for f := k; ; f = f.Next() {
		switch {
		case f == last:
			return fresh, false, true
		case f == below:
			return fresh, true, true
		case f == nil:
			return fresh, false, false
		}
		fresh++
	}
}
