package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tailspace/internal/expand"
)

// runSrc evaluates program source under a variant and returns the answer.
func runSrc(t *testing.T, variant Variant, src string) Result {
	t.Helper()
	res, err := RunProgram(src, Options{Variant: variant, MaxSteps: 2_000_000})
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return res
}

func wantAnswer(t *testing.T, variant Variant, src, want string) {
	t.Helper()
	res := runSrc(t, variant, src)
	if res.Err != nil {
		t.Fatalf("[%s] %q: %v", variant, src, res.Err)
	}
	if res.Answer != want {
		t.Fatalf("[%s] %q = %q, want %q", variant, src, res.Answer, want)
	}
}

func wantAnswerAll(t *testing.T, src, want string) {
	t.Helper()
	for _, v := range Variants {
		wantAnswer(t, v, src, want)
	}
}

func TestConstants(t *testing.T) {
	wantAnswerAll(t, "42", "42")
	wantAnswerAll(t, "#t", "#t")
	wantAnswerAll(t, "#f", "#f")
	wantAnswerAll(t, "'sym", "sym")
	wantAnswerAll(t, `"hi"`, `"hi"`)
	wantAnswerAll(t, "'()", "()")
}

func TestArithmeticPrograms(t *testing.T) {
	wantAnswerAll(t, "(+ 1 2 3)", "6")
	wantAnswerAll(t, "(* (+ 1 2) (- 10 4))", "18")
	wantAnswerAll(t, "(quotient 17 5)", "3")
}

func TestIf(t *testing.T) {
	wantAnswerAll(t, "(if #t 1 2)", "1")
	wantAnswerAll(t, "(if #f 1 2)", "2")
	wantAnswerAll(t, "(if 0 1 2)", "1") // only #f is false
	wantAnswerAll(t, "(if '() 1 2)", "1")
}

func TestLambdaAndApplication(t *testing.T) {
	wantAnswerAll(t, "((lambda (x) x) 7)", "7")
	wantAnswerAll(t, "((lambda (x y) (- x y)) 10 3)", "7")
	wantAnswerAll(t, "((lambda () 42))", "42")
}

func TestClosureCapture(t *testing.T) {
	wantAnswerAll(t, "(((lambda (x) (lambda (y) (+ x y))) 3) 4)", "7")
}

func TestLetForms(t *testing.T) {
	wantAnswerAll(t, "(let ((x 2) (y 3)) (* x y))", "6")
	wantAnswerAll(t, "(let* ((x 2) (y (* x x))) y)", "4")
	wantAnswerAll(t, "(letrec ((f (lambda (n) (if (zero? n) 1 (* n (f (- n 1))))))) (f 5))", "120")
}

func TestNamedLetLoop(t *testing.T) {
	wantAnswerAll(t, "(let loop ((i 0) (acc 0)) (if (= i 5) acc (loop (+ i 1) (+ acc i))))", "10")
}

func TestSetBang(t *testing.T) {
	wantAnswerAll(t, "(let ((x 1)) (begin (set! x 42) x))", "42")
}

func TestSequencing(t *testing.T) {
	wantAnswerAll(t, "(begin 1 2 3)", "3")
	wantAnswerAll(t, "(let ((x 0)) (begin (set! x (+ x 1)) (set! x (+ x 10)) x))", "11")
}

func TestMutualRecursion(t *testing.T) {
	src := `
(define (my-even? n) (if (zero? n) #t (my-odd? (- n 1))))
(define (my-odd? n) (if (zero? n) #f (my-even? (- n 1))))
(my-even? 10)`
	wantAnswerAll(t, src, "#t")
}

func TestFibonacci(t *testing.T) {
	src := `
(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(fib 10)`
	wantAnswerAll(t, src, "55")
}

func TestDataStructures(t *testing.T) {
	wantAnswerAll(t, "(cons 1 2)", "(1 . 2)")
	wantAnswerAll(t, "(list 1 2 3)", "(1 2 3)")
	wantAnswerAll(t, "'(1 (2 3) 4)", "(1 (2 3) 4)")
	wantAnswerAll(t, "(vector 1 2)", "#(1 2)")
	wantAnswerAll(t, "(make-vector 3 'a)", "#(a a a)")
	wantAnswerAll(t, "(reverse '(1 2 3))", "(3 2 1)")
	wantAnswerAll(t, "(append '(1) '(2 3))", "(1 2 3)")
}

func TestHigherOrder(t *testing.T) {
	src := `
(define (map1 f l) (if (null? l) '() (cons (f (car l)) (map1 f (cdr l)))))
(map1 (lambda (x) (* x x)) '(1 2 3 4))`
	wantAnswerAll(t, src, "(1 4 9 16)")
}

func TestProcedureAnswer(t *testing.T) {
	wantAnswerAll(t, "(lambda (x) x)", "#<PROC>")
	wantAnswerAll(t, "car", "#<PROC>")
}

func TestDeepTailLoopAllVariants(t *testing.T) {
	// The headline program of Theorem 25(b); it must terminate under every
	// variant (they all compute the same answers, Corollary 20).
	src := "(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 1000)"
	wantAnswerAll(t, src, "0")
}

func TestCPSStyle(t *testing.T) {
	src := `
(define (add-k a b k) (k (+ a b)))
(define (mul-k a b k) (k (* a b)))
(add-k 2 3 (lambda (s) (mul-k s 4 (lambda (p) p))))`
	wantAnswerAll(t, src, "20")
}

func TestCallCCEscape(t *testing.T) {
	wantAnswerAll(t, "(call/cc (lambda (k) (+ 1 (k 42))))", "42")
	wantAnswerAll(t, "(call/cc (lambda (k) 7))", "7")
	wantAnswerAll(t, "(+ 1 (call/cc (lambda (k) (k 10) 99)))", "11")
}

func TestCallCCStoredAndReused(t *testing.T) {
	// Re-enter a continuation captured earlier.
	src := `
(let ((saved #f) (count 0))
  (let ((x (call/cc (lambda (k) (set! saved k) 0))))
    (set! count (+ count 1))
    (if (< x 3) (saved (+ x 1)) (list x count))))`
	wantAnswerAll(t, src, "(3 4)")
}

// reenteredPushFrame re-enters two push frames of one call evaluation
// through escapes: k1 awaits the list's first operand, k2 its second. When k2
// is resumed last, the value k1's re-entry delivered must not show through:
// under LeftToRight k2's frame holds the first operand's value 1, as it did
// when it was built.
const reenteredPushFrame = `
(define k1 #f) (define k2 #f) (define n 0)
(define (f) (list (call/cc (lambda (k) (if (not k1) (set! k1 k)) 1))
                  (call/cc (lambda (k) (if (not k2) (set! k2 k)) 2))))
(define r (f)) (set! n (+ n 1))
(cond ((= n 1) (k1 10)) ((= n 2) (k2 20)) (else (list r n)))`

func TestReenteredPushFrameKeepsItsValues(t *testing.T) {
	for _, v := range AllVariants {
		for _, order := range []ArgOrder{LeftToRight, RightToLeft} {
			res, err := RunProgram(reenteredPushFrame, Options{Variant: v, Order: order})
			if err != nil || res.Err != nil {
				t.Fatalf("[%s] order %v: %v %v", v, order, err, res.Err)
			}
			if res.Answer != "((1 20) 3)" {
				t.Errorf("[%s] order %v: answer %s, want ((1 20) 3)", v, order, res.Answer)
			}
		}
	}
}

// TestCallAllocationsPerOperand pins what an operand costs the Go heap on
// an answer-only run: one push frame. The push frames of one call
// evaluation share one record, so a push transition copies none of the
// values so far and the fixed orders build no π. Sixteen more operands may
// add sixteen frames and a little slack.
func TestCallAllocationsPerOperand(t *testing.T) {
	allocs := func(order ArgOrder, n int) float64 {
		params, args := make([]string, n), make([]string, n)
		for i := range n {
			params[i], args[i] = fmt.Sprintf("a%d", i), fmt.Sprint(i)
		}
		e, err := expand.ParseProgram(fmt.Sprintf("((lambda (%s) 0) %s)",
			strings.Join(params, " "), strings.Join(args, " ")))
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Variant: Tail, Order: order}
		return testing.AllocsPerRun(20, func() {
			if res := NewRunner(opts).Run(e); res.Err != nil || res.Answer != "0" {
				t.Fatalf("n = %d, order %v: %v %s", n, order, res.Err, res.Answer)
			}
		})
	}
	for _, order := range []ArgOrder{LeftToRight, RightToLeft} {
		small, large := allocs(order, 8), allocs(order, 24)
		if large-small > 18 {
			t.Errorf("order %v: %v heap objects at n = 8, %v at n = 24: 16 operands cost %v, want at most 18",
				order, small, large, large-small)
		}
	}
}

func TestArgumentOrderPermutations(t *testing.T) {
	src := "(+ (* 2 3) (* 4 5))"
	for _, order := range []ArgOrder{LeftToRight, RightToLeft, RandomOrder} {
		res, err := RunProgram(src, Options{Variant: Tail, Order: order, Seed: 7})
		if err != nil || res.Err != nil {
			t.Fatalf("order %v: %v %v", order, err, res.Err)
		}
		if res.Answer != "26" {
			t.Fatalf("order %v: got %s", order, res.Answer)
		}
	}
}

func TestArgumentOrderWithEffects(t *testing.T) {
	// Right-to-left evaluation observes the opposite effect order; the
	// semantics permits both (rampant underspecification).
	src := `
(let ((log '()))
  (define (note! x) (begin (set! log (cons x log)) x))
  (begin ((lambda (a b) 0) (note! 1) (note! 2)) log))`
	left, _ := RunProgram(src, Options{Variant: Tail, Order: LeftToRight})
	right, _ := RunProgram(src, Options{Variant: Tail, Order: RightToLeft})
	if left.Answer != "(2 1)" {
		t.Fatalf("left-to-right log = %s", left.Answer)
	}
	if right.Answer != "(1 2)" {
		t.Fatalf("right-to-left log = %s", right.Answer)
	}
}

func TestStuckUnboundVariable(t *testing.T) {
	res := runSrc(t, Tail, "nonexistent-variable")
	var stuck *StuckError
	if !errors.As(res.Err, &stuck) {
		t.Fatalf("want StuckError, got %v", res.Err)
	}
	if !strings.Contains(stuck.Reason, "unbound") {
		t.Fatalf("reason = %q", stuck.Reason)
	}
}

func TestStuckLetrecReadBeforeInit(t *testing.T) {
	res := runSrc(t, Tail, "(letrec ((x y) (y 1)) x)")
	var stuck *StuckError
	if !errors.As(res.Err, &stuck) {
		t.Fatalf("want StuckError, got %v", res.Err)
	}
	if !strings.Contains(stuck.Reason, "before initialization") {
		t.Fatalf("reason = %q", stuck.Reason)
	}
}

func TestStuckArityMismatch(t *testing.T) {
	res := runSrc(t, Tail, "((lambda (x) x) 1 2)")
	if res.Err == nil {
		t.Fatal("expected arity error")
	}
}

func TestStuckNonProcedure(t *testing.T) {
	res := runSrc(t, Tail, "(1 2)")
	if res.Err == nil || !strings.Contains(res.Err.Error(), "non-procedure") {
		t.Fatalf("got %v", res.Err)
	}
}

func TestStuckPrimitiveError(t *testing.T) {
	res := runSrc(t, Tail, "(car 5)")
	if res.Err == nil {
		t.Fatal("expected car type error")
	}
}

func TestMaxStepsExceeded(t *testing.T) {
	res, err := RunProgram("(define (f) (f)) (f)", Options{Variant: Tail, MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, ErrMaxSteps) {
		t.Fatalf("got %v", res.Err)
	}
}

func TestStepsCounted(t *testing.T) {
	res := runSrc(t, Tail, "42")
	if res.Steps == 0 {
		t.Fatal("steps must be counted")
	}
	if res.ProgramSize != 1 {
		t.Fatalf("|P| = %d, want 1", res.ProgramSize)
	}
}

func TestRunApplication(t *testing.T) {
	res, err := RunApplication(
		"(define (f n) (* n n))",
		"(quote 12)",
		Options{Variant: Tail},
	)
	if err != nil || res.Err != nil {
		t.Fatalf("%v %v", err, res.Err)
	}
	if res.Answer != "144" {
		t.Fatalf("got %s", res.Answer)
	}
}

func TestGCDoesNotChangeAnswers(t *testing.T) {
	src := `
(define (build n) (if (zero? n) '() (cons n (build (- n 1)))))
(define (sum l) (if (null? l) 0 (+ (car l) (sum (cdr l)))))
(sum (build 30))`
	for _, gcEvery := range []int{0, 1, 7} {
		res, err := RunProgram(src, Options{Variant: Tail, GCEvery: gcEvery})
		if err != nil || res.Err != nil {
			t.Fatalf("gcEvery=%d: %v %v", gcEvery, err, res.Err)
		}
		if res.Answer != "465" {
			t.Fatalf("gcEvery=%d: got %s", gcEvery, res.Answer)
		}
	}
}

func TestGCCollectsGarbage(t *testing.T) {
	src := "(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 200)"
	res, err := RunProgram(src, Options{Variant: Tail, GCEvery: 1})
	if err != nil || res.Err != nil {
		t.Fatalf("%v %v", err, res.Err)
	}
	if res.Collections == 0 || res.Collected == 0 {
		t.Fatal("the loop must generate collectable garbage")
	}
}

func TestVariantLookupByName(t *testing.T) {
	for _, v := range Variants {
		got, ok := ByName(v.Name)
		if !ok || got.Name != v.Name {
			t.Fatalf("ByName(%q) failed", v.Name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown name must fail")
	}
}

func TestCaseExpressionRuns(t *testing.T) {
	wantAnswerAll(t, "(case (+ 1 1) ((1) 'one) ((2) 'two) (else 'many))", "two")
}

func TestCondRuns(t *testing.T) {
	wantAnswerAll(t, "(cond ((= 1 2) 'no) ((= 1 1) 'yes) (else 'fallback))", "yes")
	wantAnswerAll(t, "(cond ((memv 2 '(1 2 3)) => car) (else 'no))", "2")
}

func TestDoLoopRuns(t *testing.T) {
	wantAnswerAll(t, "(do ((i 0 (+ i 1)) (acc 1 (* acc 2))) ((= i 8) acc))", "256")
}

func TestBigIntegers(t *testing.T) {
	// 2^100: unlimited precision arithmetic.
	wantAnswer(t, Tail, "(expt 2 100)", "1267650600228229401496703205376")
	src := "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 25)"
	wantAnswer(t, Tail, src, "15511210043330985984000000")
}

func TestShadowingSemantics(t *testing.T) {
	wantAnswerAll(t, "(let ((x 1)) (let ((x 2)) x))", "2")
	wantAnswerAll(t, "(let ((x 1)) ((lambda (x) x) 99))", "99")
}

func TestFreeVariantClosesOverFreeOnly(t *testing.T) {
	// Behaviour must be identical even though the closure environment is
	// smaller under Z_free.
	src := "(let ((a 1) (b 2) (c 3)) ((lambda (x) (+ x b)) 10))"
	wantAnswer(t, Free, src, "12")
	wantAnswer(t, SFS, src, "12")
}

func TestFindLeftmostExample(t *testing.T) {
	// The Section 4 example, with trees as nested vectors: a leaf is a
	// number; an interior node is (vector left right).
	src := `
(define (leaf? t) (number? t))
(define (left-child t) (vector-ref t 0))
(define (right-child t) (vector-ref t 1))
(define (find-leftmost predicate? tree fail)
  (if (leaf? tree)
      (if (predicate? tree)
          tree
          (fail))
      (let ((continuation
             (lambda ()
               (find-leftmost predicate?
                              (right-child tree)
                              fail))))
        (find-leftmost predicate? (left-child tree) continuation))))
(find-leftmost (lambda (x) (> x 2))
               (vector (vector 1 2) (vector 3 4))
               (lambda () 'none))`
	wantAnswerAll(t, src, "3")
}

func TestFindLeftmostFailure(t *testing.T) {
	src := `
(define (leaf? t) (number? t))
(define (find-leftmost predicate? tree fail)
  (if (leaf? tree)
      (if (predicate? tree) tree (fail))
      (let ((k (lambda () (find-leftmost predicate? (vector-ref tree 1) fail))))
        (find-leftmost predicate? (vector-ref tree 0) k))))
(find-leftmost (lambda (x) (> x 100)) (vector 1 (vector 2 3)) (lambda () 'none))`
	wantAnswerAll(t, src, "none")
}
