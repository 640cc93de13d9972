// Package framecheck implements this repository's exhaustiveness checks
// over type-checked Go packages. Three idioms must stay in lockstep with
// enumerations they do not syntactically mention, and each has a
// silently-wrong failure mode a unit test will not catch until the wrong
// program is measured:
//
//   - dense rule tables: an array literal sized by a trailing iota bound
//     (ruleNames [NumRules]string) silently yields "" for a rule added
//     without a table entry;
//   - kind switches: a type switch over an interface with a panicking
//     default (a per-kind table written as a switch) asserts
//     exhaustiveness at runtime only — a new kind panics mid-run;
//   - enum switches: an expression switch over a dense integer
//     enumeration (a Rule, or any kind or opcode enum written the same
//     way) with a panicking default likewise asserts exhaustiveness at
//     runtime only — a value added without an arm panics on first use.
//
// The checks are structural, not name-based: any keyed array literal whose
// length is a named constant must cover every index below the bound, any
// panic-default type switch over an interface must list every concrete
// implementation found in the interface's defining package, and any
// panic-default expression switch over a dense enum (constants 0..N-1
// plus a single count bound at N, the NumRules idiom) must list a case
// for every value below the bound.
package framecheck

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one finding, positioned in the checked package's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Check runs every pass over one type-checked package and returns the
// findings in source order.
func Check(files []*ast.File, pkg *types.Package, info *types.Info) []Diagnostic {
	var diags []Diagnostic
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				diags = append(diags, checkDenseArray(x, info)...)
			case *ast.TypeSwitchStmt:
				diags = append(diags, checkFrameSwitch(x, pkg, info)...)
			case *ast.SwitchStmt:
				diags = append(diags, checkOpSwitch(x, pkg, info)...)
			}
			return true
		})
	}
	return diags
}

// checkDenseArray enforces the NumRules idiom: a keyed composite literal of
// an array type whose length is a named constant is a dense per-enum table,
// so every index below the bound must have an entry. An empty literal is the
// explicit zero value (a counter reset), not a table, and is exempt.
func checkDenseArray(lit *ast.CompositeLit, info *types.Info) []Diagnostic {
	at, ok := lit.Type.(*ast.ArrayType)
	if !ok || at.Len == nil || len(lit.Elts) == 0 {
		return nil
	}
	bound := namedConst(at.Len, info)
	if bound == nil {
		return nil
	}
	n, ok := constant.Int64Val(constant.ToInt(bound.Val()))
	if !ok || n <= 0 {
		return nil
	}
	covered := map[int64]bool{}
	next := int64(0)
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			tv, ok := info.Types[kv.Key]
			if !ok || tv.Value == nil {
				return nil // non-constant key: not statically checkable
			}
			v, ok := constant.Int64Val(constant.ToInt(tv.Value))
			if !ok {
				return nil
			}
			next = v
		}
		covered[next] = true
		next++
	}
	if int64(len(covered)) >= n {
		return nil
	}
	var missing []string
	for i := int64(0); i < n; i++ {
		if !covered[i] {
			missing = append(missing, indexName(bound, i))
		}
	}
	return []Diagnostic{{
		Pos: lit.Pos(),
		Message: fmt.Sprintf("array literal sized by %s is missing entries for %s",
			bound.Name(), strings.Join(missing, ", ")),
	}}
}

// namedConst resolves an array-length expression to the named constant it
// references (NumRules, core.NumRules), or nil for literal lengths.
func namedConst(e ast.Expr, info *types.Info) *types.Const {
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	c, _ := info.Uses[id].(*types.Const)
	return c
}

// indexName reports the enum constant for one missing index: the bound's
// own type names the enumeration (NumRules is itself a Rule), so its
// defining package's constants of that type are the table's legal keys.
func indexName(bound *types.Const, i int64) string {
	if named, ok := bound.Type().(*types.Named); ok && bound.Pkg() != nil {
		scope := bound.Pkg().Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || c == bound || !types.Identical(c.Type(), named) {
				continue
			}
			if v, ok := constant.Int64Val(constant.ToInt(c.Val())); ok && v == i {
				return c.Name()
			}
		}
	}
	return fmt.Sprintf("index %d", i)
}

// checkFrameSwitch enforces exhaustiveness on type switches that assert it:
// a panicking default clause says "every other frame kind is handled
// above", so every concrete type implementing the switched interface (in
// the interface's defining package) must appear as a case.
func checkFrameSwitch(sw *ast.TypeSwitchStmt, pkg *types.Package, info *types.Info) []Diagnostic {
	tag, ok := info.Types[switchedExpr(sw)]
	if !ok {
		return nil
	}
	named, ok := tag.Type.(*types.Named)
	if !ok {
		return nil
	}
	iface, ok := named.Underlying().(*types.Interface)
	if !ok || !panicsByDefault(sw.Body.List) {
		return nil
	}
	defPkg := named.Obj().Pkg()
	if defPkg == nil {
		return nil
	}
	impls := implementations(iface, named, defPkg, pkg)
	if len(impls) == 0 {
		return nil
	}
	seen := make([]bool, len(impls))
	for _, s := range sw.Body.List {
		for _, ce := range s.(*ast.CaseClause).List {
			tv, ok := info.Types[ce]
			if !ok {
				continue
			}
			for i, imp := range impls {
				if types.Identical(tv.Type, imp) {
					seen[i] = true
				}
			}
		}
	}
	var missing []string
	qual := types.RelativeTo(pkg)
	for i, imp := range impls {
		if !seen[i] {
			missing = append(missing, types.TypeString(imp, qual))
		}
	}
	if len(missing) == 0 {
		return nil
	}
	return []Diagnostic{{
		Pos: sw.Pos(),
		Message: fmt.Sprintf("type switch over %s panics by default but is missing cases for %s",
			types.TypeString(named, qual), strings.Join(missing, ", ")),
	}}
}

// switchedExpr extracts the operand of the switch's x.(type) assertion.
func switchedExpr(sw *ast.TypeSwitchStmt) ast.Expr {
	var e ast.Expr
	switch a := sw.Assign.(type) {
	case *ast.AssignStmt: // v := x.(type)
		e = a.Rhs[0]
	case *ast.ExprStmt: // x.(type)
		e = a.X
	default:
		return nil
	}
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		return ta.X
	}
	return nil
}

// checkOpSwitch enforces exhaustiveness on expression switches that assert
// it: a panicking default over a dense integer enumeration says "every
// other value is dispatched above". The enumeration is recognized by the
// NumRules idiom — a named integer type whose constants in its
// defining package take exactly the values 0..N, with a single constant at
// the top value N acting as the count bound — and the switch must then
// have a case for every value below the bound.
func checkOpSwitch(sw *ast.SwitchStmt, pkg *types.Package, info *types.Info) []Diagnostic {
	if sw.Tag == nil || !panicsByDefault(sw.Body.List) {
		return nil
	}
	tv, ok := info.Types[sw.Tag]
	if !ok {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return nil
	}
	defPkg := named.Obj().Pkg()
	if defPkg == nil {
		return nil
	}
	byVal := map[int64][]*types.Const{}
	max := int64(-1)
	scope := defPkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		v, ok := constant.Int64Val(constant.ToInt(c.Val()))
		if !ok || v < 0 {
			return nil // negative or huge values: not the dense idiom
		}
		byVal[v] = append(byVal[v], c)
		if v > max {
			max = v
		}
	}
	// Dense from zero with one top constant as the count, or it is not a
	// dispatch enumeration and the check does not apply.
	if max < 1 || int64(len(byVal)) != max+1 || len(byVal[max]) != 1 {
		return nil
	}
	covered := map[int64]bool{}
	for _, s := range sw.Body.List {
		for _, ce := range s.(*ast.CaseClause).List {
			ctv, ok := info.Types[ce]
			if !ok || ctv.Value == nil {
				return nil // non-constant case: not statically checkable
			}
			if v, ok := constant.Int64Val(constant.ToInt(ctv.Value)); ok {
				covered[v] = true
			}
		}
	}
	var missing []string
	for v := int64(0); v < max; v++ {
		if !covered[v] {
			missing = append(missing, byVal[v][0].Name())
		}
	}
	if len(missing) == 0 {
		return nil
	}
	qual := types.RelativeTo(pkg)
	return []Diagnostic{{
		Pos: sw.Pos(),
		Message: fmt.Sprintf("switch over %s panics by default but is missing cases for %s",
			types.TypeString(named, qual), strings.Join(missing, ", ")),
	}}
}

// panicsByDefault reports whether a switch body (type or expression) has a
// default clause whose first statement is a panic call — the runtime
// exhaustiveness assertion these checks lift to build time.
func panicsByDefault(body []ast.Stmt) bool {
	for _, s := range body {
		cc := s.(*ast.CaseClause)
		if cc.List != nil || len(cc.Body) == 0 {
			continue
		}
		es, ok := cc.Body[0].(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// implementations lists every concrete type in defPkg that satisfies iface,
// as the type a case clause would name (T for value receivers, *T when only
// the pointer implements it). Unexported foreign types are skipped: a
// switch in another package cannot name them.
func implementations(iface *types.Interface, self *types.Named, defPkg, from *types.Package) []types.Type {
	var impls []types.Type
	scope := defPkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		T := tn.Type()
		if types.Identical(T, self) {
			continue
		}
		if _, isIface := T.Underlying().(*types.Interface); isIface {
			continue
		}
		if defPkg != from && !tn.Exported() {
			continue
		}
		switch {
		case types.Implements(T, iface):
			impls = append(impls, T)
		case types.Implements(types.NewPointer(T), iface):
			impls = append(impls, types.NewPointer(T))
		}
	}
	return impls
}
