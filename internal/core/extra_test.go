package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tailspace/internal/obs"
	"tailspace/internal/space"
)

func TestApplyPrimitive(t *testing.T) {
	cases := map[string]string{
		"(apply + '(1 2 3))":                     "6",
		"(apply + 1 2 '(3 4))":                   "10",
		"(apply list 1 '(2 3))":                  "(1 2 3)",
		"(apply (lambda (a b) (- a b)) '(10 3))": "7",
		"(apply apply (list + '(1 2)))":          "3",
		"(apply car '((5 6)))":                   "5",
	}
	for src, want := range cases {
		wantAnswerAll(t, src, want)
	}
}

func TestApplyErrors(t *testing.T) {
	for _, src := range []string{
		"(apply +)",
		"(apply + 1 2)",  // last argument not a list
		"(apply 5 '(1))", // non-procedure
	} {
		res := runSrc(t, Tail, src)
		if res.Err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestApplyWithCallCC(t *testing.T) {
	wantAnswerAll(t, "(+ 1 (call/cc (lambda (k) (apply k '(10)))))", "11")
}

func TestStringProgramsAllVariants(t *testing.T) {
	wantAnswerAll(t, `(string-append "a" "b" "c")`, `"abc"`)
	wantAnswerAll(t, `(string->symbol (string-append "he" "llo"))`, "hello")
	wantAnswerAll(t, `(string-length (symbol->string 'abcdef))`, "6")
}

// TestGCPeriodMonotonicity: collecting less often can only increase the
// peak, pointwise, because the computations are identical and the lazier
// store is always a superset.
func TestGCPeriodMonotonicity(t *testing.T) {
	progs := []string{
		"(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 60)",
		"(define (build n) (if (zero? n) '() (cons n (build (- n 1))))) (length (build 25))",
		"(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 10)",
	}
	for _, src := range progs {
		var prev int
		for i, k := range []int{1, 4, 16} {
			res, err := RunProgram(src, Options{
				Variant: Tail, Measure: true, FlatOnly: true,
				GCEvery: k, CostModel: space.Fixnum,
			})
			if err != nil || res.Err != nil {
				t.Fatalf("%v %v", err, res.Err)
			}
			if i > 0 && res.PeakFlat < prev {
				t.Fatalf("%q: peak with k=%d (%d) below denser collection (%d)", src, k, res.PeakFlat, prev)
			}
			prev = res.PeakFlat
		}
	}
}

// TestPropertyGCNeverChangesAnswers uses testing/quick over generated
// integer programs: the GC rule is invisible to observable answers.
func TestPropertyGCNeverChangesAnswers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := randomIntProgram(r, 4)
		var answers []string
		for _, k := range []int{0, 1, 5} {
			res, err := RunProgram(src, Options{Variant: Tail, GCEvery: k, MaxSteps: 300_000})
			if err != nil || res.Err != nil {
				return false
			}
			answers = append(answers, res.Answer)
		}
		return answers[0] == answers[1] && answers[1] == answers[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTraceFlatMatchesPeak: the maximum of the space profile the
// event stream carries equals the reported peak.
func TestPropertyTraceFlatMatchesPeak(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := randomIntProgram(r, 3)
		maxFlat := 0
		sink := &obs.ProfileSink{Row: func(e obs.Event) { maxFlat = max(maxFlat, e.Flat) }}
		opts := Options{
			Variant: Tail, Measure: true, FlatOnly: true, MaxSteps: 300_000,
			Events: sink,
		}
		res, err := RunProgram(src, opts)
		if err != nil || res.Err != nil {
			return false
		}
		sink.End()
		return maxFlat == res.PeakFlat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomIntProgram is a tiny local generator (the full one lives in
// internal/experiments, which this package cannot import).
func randomIntProgram(r *rand.Rand, depth int) string {
	if depth <= 0 {
		return itoa(r.Intn(9))
	}
	switch r.Intn(5) {
	case 0:
		return "(+ " + randomIntProgram(r, depth-1) + " " + randomIntProgram(r, depth-1) + ")"
	case 1:
		return "(if (zero? " + randomIntProgram(r, depth-1) + ") " +
			randomIntProgram(r, depth-1) + " " + randomIntProgram(r, depth-1) + ")"
	case 2:
		return "(let ((t " + randomIntProgram(r, depth-1) + ")) (* t 2))"
	case 3:
		return "(car (cons " + randomIntProgram(r, depth-1) + " '()))"
	default:
		return "((lambda (x) (- x 1)) " + randomIntProgram(r, depth-1) + ")"
	}
}

// TestMeasureAllVariantsOnMetacircular is a heavyweight end-to-end check:
// the metacircular evaluator program runs identically on every machine with
// full metering on.
func TestMeasureAllVariantsOnMetacircular(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	src := `
(define (zip ks vs)
  (if (null? ks) '() (cons (cons (car ks) (car vs)) (zip (cdr ks) (cdr vs)))))
(define (lookup x env)
  (cond ((null? env) (error "unbound"))
        ((eqv? (caar env) x) (cdar env))
        (else (lookup x (cdr env)))))
(define (ev e env)
  (cond ((number? e) e)
        ((symbol? e) (lookup e env))
        ((eqv? (car e) 'quote) (cadr e))
        ((eqv? (car e) 'if)
         (if (ev (cadr e) env) (ev (caddr e) env) (ev (cadddr e) env)))
        ((eqv? (car e) 'lambda) (list 'closure (cadr e) (caddr e) env))
        (else (ap (ev (car e) env) (evlis (cdr e) env)))))
(define (evlis es env)
  (if (null? es) '() (cons (ev (car es) env) (evlis (cdr es) env))))
(define (ap f args)
  (if (pair? f)
      (ev (caddr f) (append (zip (cadr f) args) (cadddr f)))
      (apply f args)))
(ev '((lambda (f n) (f f n))
      (lambda (self n) (if (zero? n) 1 (* n (self self (- n 1)))))
      6)
    (list (cons 'zero? zero?) (cons '* *) (cons '- -)))`
	for _, v := range AllVariants {
		res, err := RunProgram(src, Options{Variant: v, Measure: true, MaxSteps: 3_000_000})
		if err != nil || res.Err != nil {
			t.Fatalf("[%s] %v %v", v, err, res.Err)
		}
		if res.Answer != "720" {
			t.Fatalf("[%s] answer %q", v, res.Answer)
		}
		if res.PeakLinked > res.PeakFlat {
			t.Fatalf("[%s] U > S", v)
		}
	}
}
