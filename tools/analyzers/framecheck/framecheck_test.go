package framecheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// src exercises both passes: names is missing ruleB, size is missing *ret,
// while zeroed (explicit zero value), full (complete table), and describe
// (non-panicking default) must stay silent.
const src = `package p

type frame interface{ isFrame() }

type halt struct{}
type push struct{}
type ret struct{}

func (halt) isFrame()  {}
func (*push) isFrame() {}
func (*ret) isFrame()  {}

type rule int

const (
	ruleA rule = iota
	ruleB
	ruleC
	numRules
)

var names = [numRules]string{
	ruleA: "a",
	ruleC: "c",
}

var full = [numRules]string{
	ruleA: "a",
	ruleB: "b",
	ruleC: "c",
}

var zeroed = [numRules]int{}

func size(f frame) int {
	switch f.(type) {
	case halt:
		return 0
	case *push:
		return 1
	default:
		panic("unreachable frame")
	}
}

func describe(f frame) string {
	switch f.(type) {
	case halt:
		return "halt"
	default:
		return "other"
	}
}
`

func checkSource(t *testing.T, src string) ([]Diagnostic, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return Check([]*ast.File{f}, pkg, info), fset
}

func TestCheck(t *testing.T) {
	diags, _ := checkSource(t, src)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %+v", len(diags), diags)
	}
	if want := "missing entries for ruleB"; !strings.Contains(diags[0].Message, want) {
		t.Errorf("diag 0 = %q, want mention of %q", diags[0].Message, want)
	}
	if want := "missing cases for *ret"; !strings.Contains(diags[1].Message, want) {
		t.Errorf("diag 1 = %q, want mention of %q", diags[1].Message, want)
	}
}

// TestMonitorFrameOmission pins the kind-switch check on a continuation-
// shaped fixture: a panic-default type switch over an interface that
// forgets one implementation (here monCod, the pending-check frame the
// space-efficient join rewrites) fails the vet gate.
func TestMonitorFrameOmission(t *testing.T) {
	const src = `package p

type cont interface{ isCont() }

type halt struct{}
type push struct{}
type monCod struct{}
type monChk struct{}

func (halt) isCont()    {}
func (*push) isCont()   {}
func (*monCod) isCont() {}
func (*monChk) isCont() {}

func roots(k cont) int {
	switch k.(type) {
	case halt:
		return 0
	case *push:
		return 1
	case *monChk:
		return 2
	default:
		panic("unrooted continuation frame")
	}
}
`
	diags, _ := checkSource(t, src)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %+v", len(diags), diags)
	}
	if want := "missing cases for *monCod"; !strings.Contains(diags[0].Message, want) {
		t.Errorf("diag = %q, want mention of %q", diags[0].Message, want)
	}
}

// TestPositionalLiteral covers the untyped-bound and positional-element
// paths: a half-filled positional table is flagged with raw indices.
func TestPositionalLiteral(t *testing.T) {
	const src = `package p

const n = 3

var tbl = [n]string{"a", "b"}
`
	diags, _ := checkSource(t, src)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %+v", len(diags), diags)
	}
	if want := "missing entries for index 2"; !strings.Contains(diags[0].Message, want) {
		t.Errorf("diag = %q, want mention of %q", diags[0].Message, want)
	}
}

// TestLiteralLengthExempt: arrays sized by a literal are not enum tables.
func TestLiteralLengthExempt(t *testing.T) {
	const src = `package p

var tbl = [3]string{"a"}
`
	if diags, _ := checkSource(t, src); len(diags) != 0 {
		t.Fatalf("literal-length array flagged: %+v", diags)
	}
}

// TestOpSwitch covers the dense-enum dispatch pass: a panic-default
// expression switch over an op enumeration (constants 0..N-1 plus the
// numOps count bound) missing an arm is flagged, a complete switch and a
// non-panicking default stay silent, and the bound itself needs no case.
func TestOpSwitch(t *testing.T) {
	const src = `package p

type op int

const (
	opConst op = iota
	opLocal
	opCall
	numOps
)

func dispatch(o op) int {
	switch o {
	case opConst:
		return 0
	case opCall:
		return 2
	default:
		panic("unknown opcode")
	}
}

func full(o op) int {
	switch o {
	case opConst, opLocal:
		return 0
	case opCall:
		return 2
	default:
		panic("unknown opcode")
	}
}

func lenient(o op) string {
	switch o {
	case opConst:
		return "const"
	default:
		return "other"
	}
}
`
	diags, _ := checkSource(t, src)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %+v", len(diags), diags)
	}
	if want := "missing cases for opLocal"; !strings.Contains(diags[0].Message, want) {
		t.Errorf("diag = %q, want mention of %q", diags[0].Message, want)
	}
}

// TestOpSwitchNonDenseExempt: integer types whose constants are not the
// dense 0..N-plus-bound idiom (flag words, sparse codes) are not dispatch
// enumerations, even with a panicking default.
func TestOpSwitchNonDenseExempt(t *testing.T) {
	const src = `package p

type code int

const (
	codeA code = 1
	codeB code = 4
)

func f(c code) int {
	switch c {
	case codeA:
		return 0
	default:
		panic("bad code")
	}
}
`
	if diags, _ := checkSource(t, src); len(diags) != 0 {
		t.Fatalf("sparse enum flagged: %+v", diags)
	}
}
