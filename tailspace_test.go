package tailspace

import (
	"strings"
	"testing"
)

func TestRunBasic(t *testing.T) {
	res, err := Run("(+ 1 2)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer != "3" {
		t.Fatalf("answer %q", res.Answer)
	}
	if res.Steps == 0 || res.ProgramSize == 0 {
		t.Fatalf("metadata missing: %+v", res)
	}
}

func TestRunEveryVariant(t *testing.T) {
	for _, v := range Variants {
		res, err := Run("(let ((x 2)) (* x 21))", Options{Variant: v})
		if err != nil {
			t.Fatalf("[%s] %v", v, err)
		}
		if res.Answer != "42" {
			t.Fatalf("[%s] answer %q", v, res.Answer)
		}
	}
}

func TestUnknownVariant(t *testing.T) {
	if _, err := Run("1", Options{Variant: "bogus"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunReportsStuck(t *testing.T) {
	_, err := Run("(car 5)", Options{})
	if err == nil || !strings.Contains(err.Error(), "car") {
		t.Fatalf("got %v", err)
	}
}

func TestApplyMeasuresSpace(t *testing.T) {
	res, err := Apply("(define (f n) (* n n))", "(quote 9)", Options{Measure: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer != "81" {
		t.Fatalf("answer %q", res.Answer)
	}
	if res.SpaceFlat == 0 || res.SpaceLinked == 0 {
		t.Fatal("space must be measured")
	}
	if res.SpaceLinked > res.SpaceFlat {
		t.Fatalf("U (%d) must be <= S (%d)", res.SpaceLinked, res.SpaceFlat)
	}
}

func TestMeasureAllOrdering(t *testing.T) {
	m, err := MeasureAll("(define (f n) (if (zero? n) 0 (f (- n 1))))", "(quote 40)",
		Options{CostModel: "fixnum"})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 8 {
		t.Fatalf("got %d variants", len(m))
	}
	if !(m[Tail].SpaceFlat <= m[GC].SpaceFlat && m[GC].SpaceFlat <= m[Stack].SpaceFlat) {
		t.Fatalf("hierarchy violated: tail=%d gc=%d stack=%d",
			m[Tail].SpaceFlat, m[GC].SpaceFlat, m[Stack].SpaceFlat)
	}
	if !(m[SFS].SpaceFlat <= m[Evlis].SpaceFlat && m[Evlis].SpaceFlat <= m[Tail].SpaceFlat) {
		t.Fatalf("hierarchy violated: sfs=%d evlis=%d tail=%d",
			m[SFS].SpaceFlat, m[Evlis].SpaceFlat, m[Tail].SpaceFlat)
	}
	if !(m[Tail].SpaceFlat <= m[SpaceEff].SpaceFlat && m[SpaceEff].SpaceFlat <= m[Naive].SpaceFlat) {
		t.Fatalf("monitor hierarchy violated: tail=%d spaceff=%d naive=%d",
			m[Tail].SpaceFlat, m[SpaceEff].SpaceFlat, m[Naive].SpaceFlat)
	}
}

func TestAnalyzeTailCalls(t *testing.T) {
	s, err := AnalyzeTailCalls("(define (f n) (if (zero? n) 0 (f (- n 1)))) f")
	if err != nil {
		t.Fatal(err)
	}
	if s.SelfTail != 1 {
		t.Fatalf("self = %d", s.SelfTail)
	}
	if s.Calls != s.NonTail+s.TailCalls {
		t.Fatalf("partition broken: %+v", s)
	}
}

func TestIsProperlyTailRecursive(t *testing.T) {
	proper, err := IsProperlyTailRecursive(Tail)
	if err != nil {
		t.Fatal(err)
	}
	if !proper {
		t.Fatal("Z_tail must be properly tail recursive")
	}
	improper, err := IsProperlyTailRecursive(GC)
	if err != nil {
		t.Fatal(err)
	}
	if improper {
		t.Fatal("Z_gc must not be properly tail recursive")
	}
}

func TestOrdersAgree(t *testing.T) {
	src := "(- (* 3 4) (+ 1 2))"
	for _, o := range []Order{LeftToRight, RightToLeft, RandomOrder} {
		res, err := Run(src, Options{Order: o, Seed: 5})
		if err != nil || res.Answer != "9" {
			t.Fatalf("order %v: %v %q", o, err, res.Answer)
		}
	}
}

func TestStackStrictSurfacesDangling(t *testing.T) {
	_, err := Run("(((lambda (x) (lambda (y) x)) 1) 2)", Options{Variant: Stack, StackStrict: true})
	if err == nil || !strings.Contains(err.Error(), "dangle") {
		t.Fatalf("got %v", err)
	}
}

func TestCallCCThroughFacade(t *testing.T) {
	res, err := Run("(+ 1 (call/cc (lambda (k) (k 41))))", Options{Variant: SFS})
	if err != nil || res.Answer != "42" {
		t.Fatalf("%v %q", err, res.Answer)
	}
}

func TestMTAVariantThroughFacade(t *testing.T) {
	res, err := Run("(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 100)", Options{Variant: MTA})
	if err != nil || res.Answer != "0" {
		t.Fatalf("%v %q", err, res.Answer)
	}
}

func TestRunCPS(t *testing.T) {
	res, err := RunCPS("(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 10)",
		Options{Variant: Tail})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer != "3628800" {
		t.Fatalf("got %q", res.Answer)
	}
	// call/cc works with zero machine support after conversion.
	res, err = RunCPS("(call/cc (lambda (k) (+ 1 (k 41))))", Options{Variant: Tail})
	if err != nil || res.Answer != "41" {
		t.Fatalf("%v %q", err, res.Answer)
	}
}

func TestRunCPSParseError(t *testing.T) {
	if _, err := RunCPS("(if)", Options{}); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestRunSECD(t *testing.T) {
	loop := "(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 300)"
	classic, err := RunSECD(loop, false)
	if err != nil {
		t.Fatal(err)
	}
	tailrec, err := RunSECD(loop, true)
	if err != nil {
		t.Fatal(err)
	}
	if classic.Answer != "0" || tailrec.Answer != "0" {
		t.Fatalf("answers %q %q", classic.Answer, tailrec.Answer)
	}
	if tailrec.PeakDump >= classic.PeakDump {
		t.Fatalf("tail-recursive dump (%d) should be far below classic (%d)",
			tailrec.PeakDump, classic.PeakDump)
	}
}

func TestRunSECDRejectsCallCC(t *testing.T) {
	if _, err := RunSECD("(call/cc (lambda (k) (k 1)))", true); err == nil {
		t.Fatal("expected compile error")
	}
}

func TestCheckControlSpace(t *testing.T) {
	rep, err := CheckControlSpace("(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 1)")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != ControlBounded {
		t.Fatalf("verdict %s: %v", rep.Verdict, rep.Findings)
	}
	rep, err = CheckControlSpace("(define (f n) (if (zero? n) 0 (+ 1 (f (- n 1))))) (f 1)")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != ControlUnbounded || len(rep.Findings) == 0 {
		t.Fatalf("verdict %s: %v", rep.Verdict, rep.Findings)
	}
	if _, err := CheckControlSpace("(if)"); err == nil {
		t.Fatal("expected parse error")
	}
}
