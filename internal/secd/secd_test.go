package secd

import (
	"strings"
	"testing"

	"tailspace/internal/corpus"
)

func runBoth(t *testing.T, src string) (classic, tailrec Result) {
	t.Helper()
	code, err := CompileSource(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	classic = Run(code, Classic, 8_000_000)
	tailrec = Run(code, TailRecursive, 8_000_000)
	return classic, tailrec
}

func wantBoth(t *testing.T, src, want string) {
	t.Helper()
	classic, tailrec := runBoth(t, src)
	if classic.Err != nil {
		t.Fatalf("[classic] %q: %v", src, classic.Err)
	}
	if tailrec.Err != nil {
		t.Fatalf("[tail] %q: %v", src, tailrec.Err)
	}
	if classic.Answer != want || tailrec.Answer != want {
		t.Fatalf("%q: classic=%q tail=%q want %q", src, classic.Answer, tailrec.Answer, want)
	}
}

func TestConstantsAndArith(t *testing.T) {
	wantBoth(t, "42", "42")
	wantBoth(t, "(+ 1 2 3)", "6")
	wantBoth(t, "(* (+ 1 2) (- 10 4))", "18")
	wantBoth(t, "'sym", "sym")
	wantBoth(t, "#t", "#t")
}

func TestLambdaApplication(t *testing.T) {
	wantBoth(t, "((lambda (x) x) 7)", "7")
	wantBoth(t, "((lambda (x y) (- x y)) 10 3)", "7")
	wantBoth(t, "(((lambda (x) (lambda (y) (+ x y))) 3) 4)", "7")
}

func TestConditionals(t *testing.T) {
	wantBoth(t, "(if (< 1 2) 'yes 'no)", "yes")
	wantBoth(t, "(+ 1 (if #f 10 20))", "21") // non-tail if: SEL/JOIN
	wantBoth(t, "(if (if #t #f #t) 1 2)", "2")
}

func TestLetAndSet(t *testing.T) {
	wantBoth(t, "(let ((x 2) (y 3)) (* x y))", "6")
	wantBoth(t, "(let ((x 1)) (begin (set! x 42) x))", "42")
}

func TestRecursion(t *testing.T) {
	wantBoth(t, "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 10)", "3628800")
	wantBoth(t, "(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 200)", "0")
	wantBoth(t, `
(define (even2? n) (if (zero? n) #t (odd2? (- n 1))))
(define (odd2? n) (if (zero? n) #f (even2? (- n 1))))
(even2? 100)`, "#t")
}

func TestLetrecReadBeforeInit(t *testing.T) {
	code, err := CompileSource("(letrec ((x y) (y 1)) x)")
	if err != nil {
		t.Fatal(err)
	}
	res := Run(code, TailRecursive, 100000)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "before initialization") {
		t.Fatalf("got %v", res.Err)
	}
}

func TestHigherOrderPrimitiveValue(t *testing.T) {
	wantBoth(t, `
(define (twice f x) (f (f x)))
(twice abs -5)`, "5")
}

func TestDataStructures(t *testing.T) {
	wantBoth(t, "(cons 1 2)", "(1 . 2)")
	wantBoth(t, "'(1 (2 3))", "(1 (2 3))")
	wantBoth(t, "(vector 1 2)", "#(1 2)")
}

func TestRejectsCallCCAndApply(t *testing.T) {
	for _, src := range []string{
		"(call/cc (lambda (k) (k 1)))",
		"(apply + '(1 2))",
	} {
		if _, err := CompileSource(src); err == nil {
			t.Errorf("CompileSource(%q): expected error", src)
		}
	}
}

func TestRejectsUnbound(t *testing.T) {
	if _, err := CompileSource("nonexistent"); err == nil {
		t.Fatal("expected error")
	}
}

// TestTailRecursiveDumpBounded is the [Ram97] point: the classic machine's
// dump grows linearly on the iterative loop, Ramsdell's stays flat.
func TestTailRecursiveDumpBounded(t *testing.T) {
	loop := func(n string) string {
		return "(define (f n) (if (zero? n) 0 (f (- n 1)))) (f " + n + ")"
	}
	classicSmall, tailSmall := runBoth(t, loop("20"))
	classicLarge, tailLarge := runBoth(t, loop("400"))
	if tailLarge.PeakDump != tailSmall.PeakDump {
		t.Fatalf("tail-recursive dump must be constant: %d vs %d",
			tailSmall.PeakDump, tailLarge.PeakDump)
	}
	if classicLarge.PeakDump-classicSmall.PeakDump < 300 {
		t.Fatalf("classic dump must grow linearly: %d vs %d",
			classicSmall.PeakDump, classicLarge.PeakDump)
	}
}

// TestTailRecursiveStateBounded checks the full machine-state size, not just
// the dump count.
func TestTailRecursiveStateBounded(t *testing.T) {
	loop := func(n string) string {
		return "(define (f n) (if (zero? n) 0 (f (- n 1)))) (f " + n + ")"
	}
	_, tailSmall := runBoth(t, loop("20"))
	_, tailLarge := runBoth(t, loop("400"))
	if tailLarge.PeakState != tailSmall.PeakState {
		t.Fatalf("tail-recursive machine state must be constant: %d vs %d",
			tailSmall.PeakState, tailLarge.PeakState)
	}
}

// TestCorpusSubsetOnSECD runs every compilable corpus program on both
// machines and checks the answers.
func TestCorpusSubsetOnSECD(t *testing.T) {
	skip := map[string]bool{
		"callcc-product": true, "generator": true, // call/cc
		"apply-spread": true, "fold-apply": true, // apply
		"metacircular": true, "metacircular-tail-loop": true, // apply
		"church":          true,                          // procedure? on SECD closures
		"contracted-loop": true, "contracted-leak": true, // contract monitors
	}
	ran := 0
	for _, p := range corpus.All() {
		if skip[p.Name] {
			continue
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			wantBoth(t, p.Source, p.Answer)
		})
		ran++
	}
	if ran < 20 {
		t.Fatalf("only %d corpus programs compiled for SECD", ran)
	}
}

func TestCodeSize(t *testing.T) {
	code, err := CompileSource("(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 1)")
	if err != nil {
		t.Fatal(err)
	}
	if CodeSize(code) < 10 {
		t.Fatalf("suspiciously small code: %d", CodeSize(code))
	}
}

func TestInstructionStrings(t *testing.T) {
	for _, i := range []Instr{
		{Op: LDC}, {Op: LD, Depth: 1, Index: 2}, {Op: LDG, Name: "+"},
		{Op: LDF}, {Op: AP, N: 2}, {Op: TAP, N: 1}, {Op: RTN},
		{Op: SEL}, {Op: TSEL}, {Op: JOIN}, {Op: PRIM, Name: "car", N: 1},
		{Op: STE},
	} {
		if i.String() == "?" || i.Op.String() == "?" {
			t.Fatalf("unprintable instruction %v", i.Op)
		}
	}
}
