// Package ast defines the internal syntax of Core Scheme from Figure 1 of
// the paper:
//
//	E ::= (quote c) | I | L | (if E0 E1 E2) | (set! I E0) | (E0 E1 ...)
//	L ::= (lambda (I1 ...) E)
//
// Constants c are restricted, as in Section 12 of the paper, to booleans,
// exact integers, symbols, characters, strings and the empty list; compound
// constants are lowered by the expander to constructor calls so that
// expressions never contain store locations.
package ast

import (
	"fmt"
	"math/big"
	"strings"

	"tailspace/internal/env"
)

// Expr is a Core Scheme expression.
type Expr interface {
	isExpr()
	// Size is the number of nodes in the abstract syntax tree, the |P| of
	// Definition 23.
	Size() int
	String() string
}

// Const is (quote c). The constant is one of the Go types bool, *big.Int,
// string-as-Symbol, rune-as-Char, string, or EmptyList.
type Const struct {
	Value ConstValue
}

// ConstValue is the value of a quoted constant.
type ConstValue interface{ isConst() }

// BoolConst is #t or #f.
type BoolConst bool

// NumConst is an exact integer.
type NumConst struct{ Int *big.Int }

// SymConst is a symbol constant.
type SymConst string

// StrConst is a string constant.
type StrConst string

// CharConst is a character constant.
type CharConst rune

// NilConst is the empty list constant '().
type NilConst struct{}

// UnspecifiedConst is the unspecified value (the expander inserts it for
// one-armed ifs and empty bodies).
type UnspecifiedConst struct{}

func (BoolConst) isConst()        {}
func (NumConst) isConst()         {}
func (SymConst) isConst()         {}
func (StrConst) isConst()         {}
func (CharConst) isConst()        {}
func (NilConst) isConst()         {}
func (UnspecifiedConst) isConst() {}

// Var is a variable reference I.
type Var struct {
	Name string
	// Sym is the interned identifier, filled by the expander (or by
	// InternSyms for syntax built in code); zero means "not interned yet".
	// Evaluators resolve identifiers by Sym alone, so a tree must be
	// interned before it runs.
	Sym env.Symbol
}

// Lambda is (lambda (I1 ... In) E). Each Lambda carries a stable label used
// by diagnostics and by the tail-call classifier.
type Lambda struct {
	Params []string
	// ParamSyms holds the interned Params, parallel to Params; nil means
	// "not interned yet" (see Var.Sym).
	ParamSyms []env.Symbol
	Body      Expr
	// Label names the lambda for reporting: the defining variable when the
	// expander knows it, otherwise a generated name.
	Label string
}

// If is (if E0 E1 E2); the expander always supplies all three arms.
type If struct {
	Test, Then, Else Expr
}

// Set is (set! I E0).
type Set struct {
	Name string
	// Sym is the interned Name (see Var.Sym).
	Sym env.Symbol
	Rhs Expr
}

// Call is a procedure call (E0 E1 ...); Exprs[0] is the operator.
type Call struct {
	Exprs []Expr
}

// Mon is the contract-monitoring form (mon E_ctc E label): evaluate E_ctc to
// a contract, evaluate E, and attach the contract to the value. The monitor
// machine variants (naive, spaceff) enforce the contract; every other family
// member evaluates both subexpressions and returns E's value unwrapped
// (latent-contract erasure), so contracted programs stay runnable — and
// comparable — across the whole family. The expander produces Mon nodes from
// (mon ctc e) and from the (define/contract ...) sugar.
type Mon struct {
	// Ctc evaluates to the contract: a predicate procedure (a flat contract)
	// or an arrow contract built by (-> dom ... cod).
	Ctc Expr
	// Expr is the monitored expression.
	Expr Expr
	// Label names the monitored party for blame reporting: the defined
	// variable when the expander knows it, otherwise a generated name.
	Label string
}

func (*Const) isExpr()  {}
func (*Var) isExpr()    {}
func (*Lambda) isExpr() {}
func (*If) isExpr()     {}
func (*Set) isExpr()    {}
func (*Call) isExpr()   {}
func (*Mon) isExpr()    {}

// Size implementations: every syntactic node counts 1.

func (e *Const) Size() int { return 1 }
func (e *Var) Size() int   { return 1 }

func (e *Lambda) Size() int { return 1 + len(e.Params) + e.Body.Size() }

func (e *If) Size() int { return 1 + e.Test.Size() + e.Then.Size() + e.Else.Size() }

func (e *Set) Size() int { return 2 + e.Rhs.Size() }

func (e *Call) Size() int {
	n := 1
	for _, sub := range e.Exprs {
		n += sub.Size()
	}
	return n
}

func (e *Mon) Size() int { return 1 + e.Ctc.Size() + e.Expr.Size() }

// Operator returns the operator expression of a call.
func (e *Call) Operator() Expr { return e.Exprs[0] }

// Operands returns the operand expressions of a call.
func (e *Call) Operands() []Expr { return e.Exprs[1:] }

func (v UnspecifiedConst) String() string { return "#!unspecified" }

func constString(c ConstValue) string {
	switch x := c.(type) {
	case BoolConst:
		if bool(x) {
			return "#t"
		}
		return "#f"
	case NumConst:
		return x.Int.String()
	case SymConst:
		return string(x)
	case StrConst:
		return fmt.Sprintf("%q", string(x))
	case CharConst:
		return `#\` + string(rune(x))
	case NilConst:
		return "()"
	case UnspecifiedConst:
		return "#!unspecified"
	}
	return "?"
}

func (e *Const) String() string { return "(quote " + constString(e.Value) + ")" }

func (e *Var) String() string { return e.Name }

func (e *Lambda) String() string {
	return "(lambda (" + strings.Join(e.Params, " ") + ") " + e.Body.String() + ")"
}

func (e *If) String() string {
	return "(if " + e.Test.String() + " " + e.Then.String() + " " + e.Else.String() + ")"
}

func (e *Set) String() string {
	return "(set! " + e.Name + " " + e.Rhs.String() + ")"
}

func (e *Call) String() string {
	parts := make([]string, len(e.Exprs))
	for i, sub := range e.Exprs {
		parts[i] = sub.String()
	}
	return "(" + strings.Join(parts, " ") + ")"
}

func (e *Mon) String() string {
	return "(mon " + e.Ctc.String() + " " + e.Expr.String() + ")"
}

// InternSyms fills the interned-symbol fields (Var.Sym, Lambda.ParamSyms,
// Set.Sym) of every node that does not have them yet, so evaluators can
// resolve identifiers by integer comparison instead of string hashing. The
// expander interns at parse time; this pass exists for syntax built
// programmatically (the CPS converter, tests). Already-interned nodes are
// left untouched — the pass is idempotent, and on fully interned trees it
// performs no writes. Like all AST mutation it must happen before the tree
// is shared across goroutines.
func InternSyms(e Expr) {
	Walk(e, func(e Expr) bool {
		switch x := e.(type) {
		case *Var:
			if x.Sym == 0 {
				x.Sym = env.Intern(x.Name)
			}
		case *Lambda:
			if x.ParamSyms == nil && len(x.Params) > 0 {
				x.ParamSyms = env.InternAll(x.Params)
			}
		case *Set:
			if x.Sym == 0 {
				x.Sym = env.Intern(x.Name)
			}
		}
		return true
	})
}

// Walk visits every expression in e, parents before children, calling f on
// each. If f returns false the subtree below that node is not visited.
func Walk(e Expr, f func(Expr) bool) {
	if !f(e) {
		return
	}
	switch x := e.(type) {
	case *Lambda:
		Walk(x.Body, f)
	case *If:
		Walk(x.Test, f)
		Walk(x.Then, f)
		Walk(x.Else, f)
	case *Set:
		Walk(x.Rhs, f)
	case *Call:
		for _, sub := range x.Exprs {
			Walk(sub, f)
		}
	case *Mon:
		Walk(x.Ctc, f)
		Walk(x.Expr, f)
	}
}
