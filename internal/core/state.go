package core

import (
	"fmt"

	"tailspace/internal/ast"
	"tailspace/internal/env"
	"tailspace/internal/value"
)

// State is an intermediate configuration of Figure 4: either (E, ρ, κ, σ)
// when Expr is non-nil, or (v, ρ, κ, σ) when Val is non-nil. The store σ is
// held by the Machine, not copied per state.
type State struct {
	Expr ast.Expr
	Val  value.Value
	Env  env.Env
	K    value.Cont
}

// EvalState builds an expression configuration.
func EvalState(e ast.Expr, rho env.Env, k value.Cont) State {
	return State{Expr: e, Env: rho, K: k}
}

// ValueState builds a value configuration.
func ValueState(v value.Value, rho env.Env, k value.Cont) State {
	return State{Val: v, Env: rho, K: k}
}

// IsFinal reports whether the state is a final configuration (v, σ): a value
// delivered to the halt continuation with its environment dropped.
func (s State) IsFinal() bool {
	if s.Val == nil {
		return false
	}
	_, halt := s.K.(value.Halt)
	return halt && s.Env.IsEmpty()
}

func (s State) String() string {
	if s.Expr != nil {
		return fmt.Sprintf("(eval %s |ρ|=%d depth=%d)", s.Expr, s.Env.Size(), value.Depth(s.K))
	}
	return fmt.Sprintf("(value %T |ρ|=%d depth=%d)", s.Val, s.Env.Size(), value.Depth(s.K))
}

// StuckError reports a stuck computation: a program error, or — for Z_stack —
// a stack allocation that created a dangling pointer (Definition 21).
type StuckError struct {
	Reason string
	Step   int
}

func (e *StuckError) Error() string {
	return fmt.Sprintf("stuck at step %d: %s", e.Step, e.Reason)
}

// IsDangling reports whether the computation stuck because the Z_stack
// deletion strategy would have created a dangling pointer.
func (e *StuckError) IsDangling() bool {
	return e.Reason != "" && len(e.Reason) >= len(danglingPrefix) && e.Reason[:len(danglingPrefix)] == danglingPrefix
}

const danglingPrefix = "stack deletion would dangle"
