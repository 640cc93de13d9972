package core

import (
	"fmt"
	"slices"

	"tailspace/internal/ast"
	"tailspace/internal/env"
	"tailspace/internal/prim"
	"tailspace/internal/value"
)

// ArgOrder is the permutation π a procedure call chooses, nondeterministically
// in the paper, for evaluating its operator and operand expressions.
type ArgOrder int

const (
	// LeftToRight evaluates operator then operands in source order.
	LeftToRight ArgOrder = iota
	// RightToLeft evaluates the last operand first.
	RightToLeft
	// RandomOrder draws a fresh permutation from the store's random source
	// for every call, exercising the nondeterminism of the semantics.
	RandomOrder
)

// Machine is one reference implementation: a variant plus the policies that
// resolve the semantics' nondeterminism.
type Machine struct {
	variant Variant
	store   *value.Store
	fv      *ast.FreeVarCache
	order   ArgOrder
	// stackStrict makes Z_stack choose A = {β1,...,βn} unconditionally, so a
	// return whose deletion would dangle sticks the machine. The default
	// (false) resolves the nondeterministic choice of A ⊆ {β1,...,βn} in the
	// program's favour: the maximal subset whose deletion is safe. On the
	// Algol-like subset the two coincide and both realize S_stack.
	stackStrict bool
	steps       int
	// lastRule tags the rule the most recent Step fired, for per-rule
	// accounting and the observability event stream.
	lastRule Rule
}

// NewMachine builds a machine over the given store.
func NewMachine(v Variant, store *value.Store) *Machine {
	return &Machine{
		variant: v,
		store:   store,
		fv:      ast.NewFreeVarCache(),
	}
}

// SetOrder selects the argument evaluation order policy.
func (m *Machine) SetOrder(o ArgOrder) { m.order = o }

// SetStackStrict selects the A = {β1,...,βn} mode for Z_stack, under which
// a return whose deletion would create a dangling pointer sticks the machine.
func (m *Machine) SetStackStrict(b bool) { m.stackStrict = b }

// Store returns the machine's store.
func (m *Machine) Store() *value.Store { return m.store }

// Variant returns the machine's variant.
func (m *Machine) Variant() Variant { return m.variant }

func (m *Machine) stuck(format string, args ...any) error {
	return &StuckError{Reason: fmt.Sprintf(format, args...), Step: m.steps}
}

// LastRule reports which rule the most recent Step fired: RuleNone before
// the first step and when Step reported done; when Step returned an error
// the tag names the rule that stuck.
func (m *Machine) LastRule() Rule { return m.lastRule }

// Step performs one transition. It returns the next state; done is true when
// s was already final (in which case next == s).
func (m *Machine) Step(s State) (next State, done bool, err error) {
	m.steps++
	m.lastRule = RuleNone
	if s.Expr != nil {
		return m.stepExpr(s)
	}
	return m.stepValue(s)
}

// stepExpr implements the six reduction rules of Figure 5 (with the Z_free /
// Z_sfs replacements of Section 10).
func (m *Machine) stepExpr(s State) (State, bool, error) {
	switch e := s.Expr.(type) {
	case *ast.Const:
		m.lastRule = RuleConst
		return ValueState(constValue(e.Value), s.Env, s.K), false, nil

	case *ast.Var:
		m.lastRule = RuleVar
		// An identifier evaluates to its R-value; if I ∉ Dom ρ,
		// ρ(I) ∉ Dom σ, or σ(ρ(I)) = UNDEFINED, the computation sticks.
		loc, ok := s.Env.LookupSym(e.Sym)
		if !ok {
			return s, false, m.stuck("unbound variable %s", e.Name)
		}
		v, ok := m.store.Get(loc)
		if !ok {
			return s, false, m.stuck("variable %s refers to a deleted location (dangling pointer)", e.Name)
		}
		if _, undef := v.(value.Undefined); undef {
			return s, false, m.stuck("variable %s read before initialization", e.Name)
		}
		return ValueState(v, s.Env, s.K), false, nil

	case *ast.Lambda:
		// A lambda evaluates to a closure tagged by a fresh location α.
		m.lastRule = RuleLambda
		clEnv := s.Env
		if m.variant.FreeClosures {
			clEnv = s.Env.RestrictSyms(m.fv.FreeSyms(e))
		}
		tag := m.store.Alloc(value.Unspecified{})
		return ValueState(value.Closure{Tag: tag, Lam: e, Env: clEnv}, s.Env, s.K), false, nil

	case *ast.If:
		m.lastRule = RuleIf
		contEnv := s.Env
		if m.variant.RestrictConts {
			contEnv = s.Env.RestrictSyms(m.fv.FreeSymsUnion(e.Then, e.Else))
		}
		k := &value.Select{Then: e.Then, Else: e.Else, Env: contEnv, K: s.K}
		return EvalState(e.Test, s.Env, k), false, nil

	case *ast.Set:
		m.lastRule = RuleSet
		contEnv := s.Env
		if m.variant.RestrictConts {
			contEnv = s.Env.RestrictToSym(e.Sym)
		}
		k := &value.Assign{Name: e.Name, Sym: e.Sym, Env: contEnv, K: s.K}
		return EvalState(e.Rhs, s.Env, k), false, nil

	case *ast.Call:
		m.lastRule = RuleCall
		order := m.evalOrder(len(e.Exprs))
		first := order[0]
		rest := make([]ast.Expr, len(order)-1)
		restIdx := make([]int, len(order)-1)
		for i, idx := range order[1:] {
			rest[i] = e.Exprs[idx]
			restIdx[i] = idx
		}
		k := &value.Push{
			Rest:    rest,
			RestIdx: restIdx,
			CurIdx:  first,
			Env:     m.pushEnv(s.Env, rest),
			K:       s.K,
		}
		return EvalState(e.Exprs[first], s.Env, k), false, nil

	case *ast.Mon:
		// (mon ctc e): evaluate the contract first; the mon-ctc frame
		// remembers the monitored expression. Every machine — erasing or
		// monitoring — evaluates the contract, so allocation histories and
		// answers stay aligned across the family.
		m.lastRule = RuleMon
		contEnv := s.Env
		if m.variant.RestrictConts {
			contEnv = s.Env.RestrictSyms(m.fv.FreeSyms(e.Expr))
		}
		k := &value.MonCtc{Expr: e.Expr, Label: e.Label, Env: contEnv, K: s.K}
		return EvalState(e.Ctc, s.Env, k), false, nil
	}
	return s, false, m.stuck("unknown expression form %T", s.Expr)
}

// pushEnv chooses the environment stored in a push continuation: the full ρ
// for Z_tail; the empty environment when no expressions remain for Z_evlis;
// ρ restricted to the free variables of the remaining expressions for Z_sfs.
func (m *Machine) pushEnv(rho env.Env, rest []ast.Expr) env.Env {
	switch {
	case m.variant.RestrictConts:
		return rho.RestrictSyms(m.fv.FreeSymsOfAll(rest))
	case m.variant.EvlisLastEnv && len(rest) == 0:
		return env.Empty()
	default:
		return rho
	}
}

// stepValue implements the continuation rules.
func (m *Machine) stepValue(s State) (State, bool, error) {
	switch k := s.K.(type) {
	case value.Halt:
		if !s.Env.IsEmpty() {
			// (v, ρ', halt, σ) → (v, { }, halt, σ)
			m.lastRule = RuleHaltEnv
			return ValueState(s.Val, env.Empty(), k), false, nil
		}
		return s, true, nil

	case *value.Select:
		m.lastRule = RuleSelect
		if value.Truthy(s.Val) {
			return EvalState(k.Then, k.Env, k.K), false, nil
		}
		return EvalState(k.Else, k.Env, k.K), false, nil

	case *value.Assign:
		m.lastRule = RuleAssign
		loc, ok := k.Env.LookupSym(k.Sym)
		if !ok {
			return s, false, m.stuck("assignment to unbound variable %s", k.Name)
		}
		if !m.store.Set(loc, s.Val) {
			return s, false, m.stuck("assignment to %s hits a deleted location (dangling pointer)", k.Name)
		}
		return ValueState(value.Unspecified{}, k.Env, k.K), false, nil

	case *value.Push:
		done := make([]value.Value, len(k.Done)+1)
		copy(done, k.Done)
		done[len(k.Done)] = s.Val
		doneIdx := make([]int, len(k.DoneIdx)+1)
		copy(doneIdx, k.DoneIdx)
		doneIdx[len(k.DoneIdx)] = k.CurIdx

		if len(k.Rest) > 0 {
			m.lastRule = RulePushNext
			nextExpr := k.Rest[0]
			rest := k.Rest[1:]
			nk := &value.Push{
				Rest:    rest,
				RestIdx: k.RestIdx[1:],
				Done:    done,
				DoneIdx: doneIdx,
				CurIdx:  k.RestIdx[0],
				Env:     m.pushEnvStep(k.Env, rest),
				K:       k.K,
			}
			return EvalState(nextExpr, k.Env, nk), false, nil
		}

		// All subexpressions evaluated: reassemble in source order and
		// deliver the operator with a call continuation.
		m.lastRule = RulePushCall
		vals := make([]value.Value, len(done))
		for i, idx := range doneIdx {
			vals[idx] = done[i]
		}
		return ValueState(vals[0], k.Env, &value.Call{Args: vals[1:], K: k.K}), false, nil

	case *value.Call:
		return m.applyProcedure(s, s.Val, k.Args, k.K)

	case *value.Return:
		// (v, ρ, return:(ρ',κ), σ) → (v, ρ', κ, σ)
		m.lastRule = RuleReturn
		return ValueState(s.Val, k.Env, k.K), false, nil

	case *value.ReturnStack:
		m.lastRule = RuleReturnStack
		return m.stackReturn(s, k)

	case *value.MonCtc:
		// The contract value arrived. Erasing machines drop it and evaluate
		// the monitored expression straight into the saved continuation;
		// monitor machines hold it in a mon-attach frame until the
		// expression's value is there to wrap.
		m.lastRule = RuleMonCtc
		if m.variant.Monitor == MonitorNone {
			return EvalState(k.Expr, k.Env, k.K), false, nil
		}
		return EvalState(k.Expr, k.Env, &value.MonAttach{Ctc: s.Val, Label: k.Label, K: k.K}), false, nil

	case *value.MonAttach:
		m.lastRule = RuleMonAttach
		return m.monCheck(s, s.Val, []value.Pending{{Ctc: k.Ctc, Src: k.Ctc, Label: k.Label}}, k.K)

	case *value.MonDom:
		// The verdict of a flat domain predicate for argument Idx.
		m.lastRule = RuleMonDom
		if !value.Truthy(s.Val) {
			return s, false, m.stuck(
				"contract violation: argument %d of %s rejected by its domain contract (blaming the caller of %s)",
				k.Idx+1, k.G.Label, k.G.Label)
		}
		return m.monApplyDoms(s, k.G, k.Args, k.Idx+1, k.K)

	case *value.MonCod:
		// A result reached its pending codomain checks.
		m.lastRule = RuleMonCod
		return m.monCheck(s, s.Val, k.Pend, k.K)

	case *value.MonChk:
		// The verdict of a flat check on the held value.
		m.lastRule = RuleMonChk
		if !value.Truthy(s.Val) {
			return s, false, m.stuck("contract violation: %s broke its contract (flat check failed)", k.Label)
		}
		return m.monCheck(s, k.Val, k.Rest, k.K)
	}
	return s, false, m.stuck("unknown continuation form %T", s.K)
}

// pushEnvStep further restricts the continuation environment as evaluation
// proceeds through a call's subexpressions.
func (m *Machine) pushEnvStep(rho env.Env, rest []ast.Expr) env.Env {
	switch {
	case m.variant.RestrictConts:
		return rho.RestrictSyms(m.fv.FreeSymsOfAll(rest))
	case m.variant.EvlisLastEnv && len(rest) == 0:
		return env.Empty()
	default:
		return rho
	}
}

// applyProcedure implements the call rules for closures, escapes, and
// primitives. callerEnv is the ρ' the improper variants save in their return
// continuations.
func (m *Machine) applyProcedure(s State, op value.Value, args []value.Value, k value.Cont) (State, bool, error) {
	switch proc := op.(type) {
	case value.Closure:
		lam := proc.Lam
		if len(args) != len(lam.Params) {
			return s, false, m.stuck("procedure %s expects %d arguments, got %d",
				lamName(lam), len(lam.Params), len(args))
		}
		locs := m.store.AllocN(args)
		bodyEnv := proc.Env.ExtendSyms(lam.ParamSyms, locs)
		var cont value.Cont
		switch m.variant.Call {
		case CallTail:
			// A procedure call is just a goto that changes the environment
			// register: no continuation is created.
			m.lastRule = RuleApplyTail
			cont = k
		case CallReturn:
			m.lastRule = RuleApplyReturn
			cont = &value.Return{Env: s.Env, K: k}
		case CallStackReturn:
			m.lastRule = RuleApplyStack
			// A shares locs with the body's rib; neither ever writes to it.
			cont = &value.ReturnStack{Del: locs, Env: s.Env, K: k}
		}
		return EvalState(lam.Body, bodyEnv, cont), false, nil

	case value.Guarded:
		// A guarded call: check the domains, then apply the underlying
		// procedure with the codomain check pending. Any delegated
		// predicate application overwrites the tag, exactly as call/cc and
		// apply do below.
		m.lastRule = RuleMonDom
		if len(args) != len(proc.Ctc.Dom) {
			return s, false, m.stuck("contracted procedure %s expects %d arguments, got %d",
				proc.Label, len(proc.Ctc.Dom), len(args))
		}
		owned := make([]value.Value, len(args))
		copy(owned, args)
		return m.monApplyDoms(s, proc, owned, 0, k)

	case value.Escape:
		m.lastRule = RuleApplyEscape
		if len(args) != 1 {
			return s, false, m.stuck("continuation invoked with %d arguments, want 1", len(args))
		}
		// (ESCAPE:(α,κ'), ρ', call:((v1),κ), σ) → (v1, { }, κ', σ)
		return ValueState(args[0], env.Empty(), proc.K), false, nil

	case *value.Primop:
		// call/cc and apply recurse into applyProcedure, so the tag they
		// leave behind is the rule of the application they end in.
		m.lastRule = RuleApplyPrimop
		if proc.CallCC {
			if len(args) != 1 {
				return s, false, m.stuck("%s expects 1 argument, got %d", proc.Name, len(args))
			}
			tag := m.store.Alloc(value.Unspecified{})
			esc := value.Escape{Tag: tag, K: k}
			return m.applyProcedure(s, args[0], []value.Value{esc}, k)
		}
		if proc.Spread {
			if len(args) < 2 {
				return s, false, m.stuck("%s needs a procedure and an argument list", proc.Name)
			}
			spread, ok := prim.ListElements(m.store, args[len(args)-1])
			if !ok {
				return s, false, m.stuck("%s: last argument is not a proper list", proc.Name)
			}
			full := append(append([]value.Value{}, args[1:len(args)-1]...), spread...)
			return m.applyProcedure(s, args[0], full, k)
		}
		if proc.Arity >= 0 && len(args) != proc.Arity {
			return s, false, m.stuck("%s expects %d arguments, got %d", proc.Name, proc.Arity, len(args))
		}
		result, err := proc.Apply(m.store, args)
		if err != nil {
			return s, false, m.stuck("%v", err)
		}
		return ValueState(result, s.Env, k), false, nil
	}
	return s, false, m.stuck("call of non-procedure %T", op)
}

// stackReturn implements the Z_stack return rule: delete the locations in A
// from the store. By default A is the maximal safe subset of the frame's
// locations — the paper's nondeterministic choice "A ⊆ {β1,...,βn}" resolved
// so that the computation is not stuck. In strict mode A is the whole frame
// and a return whose deletion would dangle sticks the machine.
//
// A deletion dangles when a location of A still occurs in the value
// register or in a store cell outside A; those two are checked. The older
// continuation k.K is not, because of an age invariant: A holds the
// locations applyProcedure allocated just before it pushed this frame, and
// k.K, with every value its frames hold, existed before that call. Frames
// are immutable and locations are never reused, so nothing in k.K can
// mention A (TestStackReturnAgeInvariant pins this over the corpus). The
// frame's own saved environment is dead (never dereferenced), so it does not
// block deletion either. A frame returned through a second time, by a
// re-entered escape, finds A's cells already gone.
func (m *Machine) stackReturn(s State, k *value.ReturnStack) (State, bool, error) {
	var live []env.Location
	for _, l := range k.Del {
		if _, ok := m.store.Get(l); ok {
			live = append(live, l)
		}
	}
	if len(live) == 0 {
		return ValueState(s.Val, k.Env, k.K), false, nil
	}
	held := m.store.OccursIn(live)
	for _, ref := range value.Locations(s.Val, env.Unstamped, nil) {
		if i := slices.Index(live, ref); i >= 0 {
			held[i] = true
		}
	}
	kept := 0
	for _, h := range held {
		if h {
			kept++
		}
	}
	if kept > 0 && m.stackStrict {
		return s, false, m.stuck("%s: %d of %d frame locations still referenced",
			danglingPrefix, kept, len(live))
	}
	for i, l := range live {
		if !held[i] {
			m.store.Delete(l)
		}
	}
	return ValueState(s.Val, k.Env, k.K), false, nil
}

// evalOrder chooses the permutation π for a call with n subexpressions.
func (m *Machine) evalOrder(n int) []int {
	order := make([]int, n)
	switch m.order {
	case RightToLeft:
		for i := range order {
			order[i] = n - 1 - i
		}
	case RandomOrder:
		for i := range order {
			order[i] = i
		}
		m.store.Rand.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	default:
		for i := range order {
			order[i] = i
		}
	}
	return order
}

// constValue converts a quoted constant to its runtime value. None of these
// allocate: simple constants carry no locations (Section 12).
func constValue(c ast.ConstValue) value.Value {
	switch x := c.(type) {
	case ast.BoolConst:
		return value.Bool(bool(x))
	case ast.NumConst:
		return value.Num{Int: x.Int}
	case ast.SymConst:
		return value.Sym(string(x))
	case ast.StrConst:
		return value.Str(string(x))
	case ast.CharConst:
		return value.Char(rune(x))
	case ast.NilConst:
		return value.Null{}
	case ast.UnspecifiedConst:
		return value.Unspecified{}
	}
	panic(fmt.Sprintf("core: unknown constant %T", c))
}

func lamName(l *ast.Lambda) string {
	if l.Label != "" {
		return l.Label
	}
	return "(anonymous)"
}
