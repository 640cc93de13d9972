// Package denot is a definitional interpreter for Core Scheme in the style
// of the denotational semantics the paper's Section 16 asks to be related to
// the reference implementations: environments map identifiers to locations,
// the store maps locations to values, expressible values are as in Figure 4,
// and the valuation is written in continuation-passing style so that
// call-with-current-continuation reifies the metalanguage continuation.
//
// It computes answers only — it has no operational notion of space — and
// exists to discharge the Section 16 correspondence empirically: every
// answer the denotational semantics computes is computed by every reference
// implementation (see the differential tests and the spacelab `denot`
// experiment).
package denot

import (
	"errors"
	"fmt"

	"tailspace/internal/ast"
	"tailspace/internal/env"
	"tailspace/internal/expand"
	"tailspace/internal/prim"
	"tailspace/internal/value"
)

// Cont is the semantic continuation domain: a function from expressed
// values to final answers.
type Cont func(value.Value) (value.Value, error)

// Interp evaluates Core Scheme expressions denotationally.
type Interp struct {
	store *value.Store
	// depth guards the metalanguage stack: the definitional interpreter
	// inherits Go's call discipline, so deep recursion is bounded rather
	// than properly tail recursive — which is precisely the contrast with
	// the Z_tail machine that the paper's space classes capture.
	depth, maxDepth int
}

// ErrDepth reports that the interpreter exceeded its metalanguage recursion
// budget.
var ErrDepth = errors.New("denot: metalanguage recursion limit exceeded")

// New returns an interpreter over a fresh store populated with the standard
// procedures, along with the initial environment ρ0.
func New() (*Interp, env.Env) {
	rho0, st := prim.Global()
	return &Interp{store: st, maxDepth: 2_000_000}, rho0
}

// Store exposes the interpreter's store (for rendering answers).
func (in *Interp) Store() *value.Store { return in.store }

// escape is the reified continuation captured by call/cc.
type escape struct {
	k Cont
}

// Eval runs the valuation E[[e]]ρκ. Identifiers resolve by their interned
// symbols, so e must be expander output or have been through
// ast.InternSyms.
func (in *Interp) Eval(e ast.Expr, rho env.Env, k Cont) (value.Value, error) {
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > in.maxDepth {
		return nil, ErrDepth
	}
	switch x := e.(type) {
	case *ast.Const:
		return k(constValue(x.Value))

	case *ast.Var:
		loc, ok := rho.LookupSym(x.Sym)
		if !ok {
			return nil, fmt.Errorf("denot: unbound variable %s", x.Name)
		}
		v, ok := in.store.Get(loc)
		if !ok {
			return nil, fmt.Errorf("denot: variable %s dangles", x.Name)
		}
		if _, undef := v.(value.Undefined); undef {
			return nil, fmt.Errorf("denot: variable %s read before initialization", x.Name)
		}
		return k(v)

	case *ast.Lambda:
		tag := in.store.Alloc(value.Unspecified{})
		return k(value.Closure{Tag: tag, Lam: x, Env: rho})

	case *ast.If:
		return in.Eval(x.Test, rho, func(t value.Value) (value.Value, error) {
			if value.Truthy(t) {
				return in.Eval(x.Then, rho, k)
			}
			return in.Eval(x.Else, rho, k)
		})

	case *ast.Set:
		return in.Eval(x.Rhs, rho, func(v value.Value) (value.Value, error) {
			loc, ok := rho.LookupSym(x.Sym)
			if !ok {
				return nil, fmt.Errorf("denot: assignment to unbound variable %s", x.Name)
			}
			if !in.store.Set(loc, v) {
				return nil, fmt.Errorf("denot: assignment to dangling %s", x.Name)
			}
			return k(value.Unspecified{})
		})

	case *ast.Call:
		return in.evalOperands(x.Exprs, rho, nil, k)

	case *ast.Mon:
		// Contract erasure, the denotation every erasing machine implements:
		// the contract is evaluated (its effects and errors are observable)
		// and discarded, and the monitored expression's value passes through
		// unchecked.
		return in.Eval(x.Ctc, rho, func(value.Value) (value.Value, error) {
			return in.Eval(x.Expr, rho, k)
		})
	}
	return nil, fmt.Errorf("denot: unknown expression %T", e)
}

// evalOperands evaluates call subexpressions left to right, then applies.
func (in *Interp) evalOperands(exprs []ast.Expr, rho env.Env, acc []value.Value, k Cont) (value.Value, error) {
	if len(exprs) == 0 {
		return in.Apply(acc[0], acc[1:], k)
	}
	return in.Eval(exprs[0], rho, func(v value.Value) (value.Value, error) {
		return in.evalOperands(exprs[1:], rho, append(acc, v), k)
	})
}

// Apply is the procedure application valuation.
func (in *Interp) Apply(op value.Value, args []value.Value, k Cont) (value.Value, error) {
	switch proc := op.(type) {
	case value.Closure:
		if len(args) != len(proc.Lam.Params) {
			return nil, fmt.Errorf("denot: %s expects %d arguments, got %d",
				proc.Lam.Label, len(proc.Lam.Params), len(args))
		}
		locs := in.store.AllocN(args)
		return in.Eval(proc.Lam.Body, proc.Env.ExtendSyms(proc.Lam.ParamSyms, locs), k)

	case value.Foreign:
		esc, ok := proc.Data.(escape)
		if !ok {
			return nil, fmt.Errorf("denot: call of foreign non-procedure %s", proc.Tag)
		}
		if len(args) != 1 {
			return nil, fmt.Errorf("denot: continuation invoked with %d arguments", len(args))
		}
		// Invoking a reified continuation abandons k.
		return esc.k(args[0])

	case *value.Primop:
		if proc.CallCC {
			if len(args) != 1 {
				return nil, fmt.Errorf("denot: %s expects 1 argument", proc.Name)
			}
			reified := value.Foreign{Tag: "continuation", Data: escape{k: k}}
			return in.Apply(args[0], []value.Value{reified}, k)
		}
		if proc.Spread {
			if len(args) < 2 {
				return nil, fmt.Errorf("denot: %s needs a procedure and an argument list", proc.Name)
			}
			spread, ok := prim.ListElements(in.store, args[len(args)-1])
			if !ok {
				return nil, fmt.Errorf("denot: %s: last argument is not a proper list", proc.Name)
			}
			full := append(append([]value.Value{}, args[1:len(args)-1]...), spread...)
			return in.Apply(args[0], full, k)
		}
		if proc.Arity >= 0 && len(args) != proc.Arity {
			return nil, fmt.Errorf("denot: %s expects %d arguments, got %d", proc.Name, proc.Arity, len(args))
		}
		v, err := proc.Apply(in.store, args)
		if err != nil {
			return nil, fmt.Errorf("denot: %w", err)
		}
		return k(v)
	}
	return nil, fmt.Errorf("denot: call of non-procedure %T", op)
}

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
	panic(fmt.Sprintf("denot: unknown constant %T", c))
}

// Run parses, expands, and evaluates a whole program, returning the final
// value and the store it lives in.
func Run(src string) (value.Value, *value.Store, error) {
	e, err := expand.ParseProgram(src)
	if err != nil {
		return nil, nil, err
	}
	in, rho0 := New()
	identity := func(v value.Value) (value.Value, error) { return v, nil }
	v, err := in.Eval(e, rho0, identity)
	return v, in.store, err
}

// SetMaxDepth overrides the metalanguage recursion budget.
func (in *Interp) SetMaxDepth(n int) { in.maxDepth = n }
