package core

import (
	"tailspace/internal/value"
)

// This file implements the contract-monitoring rules shared by the naive and
// space-efficient machines. The discipline follows the latent higher-order
// contract semantics: (mon ctc e) evaluates the contract, then the
// expression, and wraps procedure values in a Guarded carrying the arrow
// contract. A guarded call checks its arguments against the domain contracts
// (wrapping higher-order arguments in place, negative position) and applies
// the underlying procedure with the codomain check pending in a mon-cod
// frame. The naive machine pushes a fresh mon-cod frame per guarded call;
// the space-efficient machine joins into an adjacent mon-cod frame and
// drops duplicate pending checks by contract identity, which is exactly
// what bounds its space on contracted tail loops.

// monApplyDoms checks a guarded call's arguments against the arrow's domain
// contracts starting at index idx: arrow domains wrap procedure arguments in
// place, flat domains apply their predicate under a mon-dom continuation
// that resumes at the next index. When every domain is satisfied the
// underlying procedure is applied with the codomain check pending.
//
// gv is the Guarded being applied, passed as the Value the call received: a
// mon-dom frame holds it as that Value, so pricing the frame never boxes it.
func (m *Machine) monApplyDoms(s State, gv value.Value, args []value.Value, idx int, k value.Cont) (State, bool, error) {
	g := gv.(value.Guarded)
	ctc := g.Ctc
	for i := idx; i < len(args); i++ {
		switch d := ctc.Dom[i].(type) {
		case *value.ArrowContract:
			if !value.IsProcedure(args[i]) {
				return s, false, m.stuck(
					"contract violation: argument %d of %s must be a procedure (blaming the caller of %s)",
					i+1, g.Label, g.Label)
			}
			tag := m.store.Alloc(value.Unspecified{})
			args[i] = value.Guarded{Tag: tag, Proc: args[i], Ctc: d, Label: g.Label + "|neg"}
		default:
			if !value.IsProcedure(d) {
				return s, false, m.stuck("mon: %T is not a contract", d)
			}
			dk := &value.MonDom{G: gv, Args: args, Idx: i, K: k}
			return m.applyProcedure(s, d, []value.Value{args[i]}, dk)
		}
	}
	return m.monApplyCod(s, g, args, k)
}

// monApplyCod applies the procedure underneath a guard with its codomain
// check pending. The naive machine always pushes a fresh mon-cod frame — on
// a contracted tail loop the frames chain up, one per call. The
// space-efficient machine joins the new check into an adjacent mon-cod
// frame instead, so the chain never grows past one frame.
func (m *Machine) monApplyCod(s State, g value.Guarded, args []value.Value, k value.Cont) (State, bool, error) {
	p := value.Pending{Ctc: g.Ctc.Cod, Src: g.Ctc, Label: g.Label}
	var cont value.Cont
	if m.variant.Monitor == MonitorJoin {
		if top, ok := k.(*value.MonCod); ok {
			cont = &value.MonCod{Pend: joinPending(top.Pend, p), K: top.K}
		}
	}
	if cont == nil {
		cont = &value.MonCod{Pend: []value.Pending{p}, K: k}
	}
	return m.applyProcedure(s, g.Proc, args, cont)
}

// joinPending adds p to pend unless a check from the same attach-time
// contract with the same blame label is already pending — the
// duplicate-dropping join that makes the space-efficient monitor
// space-efficient. The identity compared is the *source* contract's (the
// whole arrow), not the codomain predicate's: predicates are routinely
// shared (number? is one primop), so a contract rebuilt per iteration must
// still chain — only a genuinely loop-invariant monitor joins away.
// Contracts without an identity (no tag) are conservatively kept.
func joinPending(pend []value.Pending, p value.Pending) []value.Pending {
	if id, ok := value.ContractID(p.Src); ok {
		for _, q := range pend {
			if qid, qok := value.ContractID(q.Src); qok && qid == id && q.Label == p.Label {
				return pend
			}
		}
	}
	out := make([]value.Pending, len(pend)+1)
	copy(out, pend)
	out[len(pend)] = p
	return out
}

// monCheck threads v through the pending contract checks: arrow contracts
// wrap (v must be a procedure), flat contracts apply their predicate under a
// mon-chk continuation awaiting the verdict. When the list is empty the
// checked value is delivered to k.
func (m *Machine) monCheck(s State, v value.Value, pend []value.Pending, k value.Cont) (State, bool, error) {
	for len(pend) > 0 {
		p := pend[0]
		switch c := p.Ctc.(type) {
		case *value.ArrowContract:
			if !value.IsProcedure(v) {
				return s, false, m.stuck("contract violation: %s promised a procedure, got %T", p.Label, v)
			}
			tag := m.store.Alloc(value.Unspecified{})
			v = value.Guarded{Tag: tag, Proc: v, Ctc: c, Label: p.Label}
			pend = pend[1:]
		default:
			if !value.IsProcedure(c) {
				return s, false, m.stuck("mon: %T is not a contract", c)
			}
			chk := &value.MonChk{Val: v, Rest: pend[1:], Label: p.Label, K: k}
			return m.applyProcedure(s, c, []value.Value{v}, chk)
		}
	}
	return ValueState(v, s.Env, k), false, nil
}
