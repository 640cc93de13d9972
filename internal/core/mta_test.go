package core

import (
	"testing"

	"tailspace/internal/env"
	"tailspace/internal/space"
	"tailspace/internal/value"
)

func TestCompressCollapsesReturnRuns(t *testing.T) {
	rho := env.Empty().ExtendSyms(env.InternAll([]string{"x"}), []env.Location{1})
	var k value.Cont = value.Halt{}
	inner := &value.Return{Env: rho, K: k}
	mid := &value.Return{Env: rho, K: inner}
	outer := &value.Return{Env: rho, K: mid}
	got := CompressReturnChains(outer)
	r, ok := got.(*value.Return)
	if !ok {
		t.Fatalf("got %T", got)
	}
	if _, ok := r.K.(value.Halt); !ok {
		t.Fatalf("chain of 3 must collapse to 1, inner is %T", r.K)
	}
	// The surviving frame is the innermost one.
	if r != inner {
		t.Fatal("the innermost frame must survive")
	}
}

func TestCompressPreservesInterleavedFrames(t *testing.T) {
	rho := env.Empty()
	var k value.Cont = value.Halt{}
	k = &value.Return{Env: rho, K: k}
	k = &value.Call{Args: nil, K: k}
	k = &value.Return{Env: rho, K: k}
	k = &value.Return{Env: rho, K: k}
	got := CompressReturnChains(k)
	// return return call return halt -> return call return halt
	if value.Depth(got) != 4 {
		t.Fatalf("depth = %d, want 4", value.Depth(got))
	}
}

func TestCompressIdempotentAndStableOnCleanChains(t *testing.T) {
	rho := env.Empty()
	var k value.Cont = value.Halt{}
	k = &value.Return{Env: rho, K: k}
	k = &value.Select{Then: nil, Else: nil, Env: rho, K: k}
	once := CompressReturnChains(k)
	if once != k {
		t.Fatal("a chain with no runs must be returned unchanged")
	}
}

func TestMTAComputesSameAnswers(t *testing.T) {
	programs := map[string]string{
		"(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 500)":                      "0",
		"(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 12)": "144",
		"(let ((x 1)) (begin (set! x 41) (+ x 1)))":                                "42",
		"(+ 1 (call/cc (lambda (k) (k 10) 99)))":                                   "11",
	}
	for src, want := range programs {
		res, err := RunProgram(src, Options{Variant: MTA, Measure: true, GCEvery: 1})
		if err != nil || res.Err != nil {
			t.Fatalf("%q: %v %v", src, err, res.Err)
		}
		if res.Answer != want {
			t.Fatalf("%q = %q, want %q", src, res.Answer, want)
		}
	}
}

// TestMTAIsProperlyTailRecursive is the Section 14 claim: the machine that
// allocates a frame for every call but collects frames too lands in
// O(S_tail) — constant space on the iterative loop — even though no
// syntactic definition of proper tail recursion admits it.
func TestMTAIsProperlyTailRecursive(t *testing.T) {
	fixnum := func(o *Options) { o.CostModel = space.Fixnum }
	small := measure(t, MTA, countdownLoop, 10, fixnum, flatOnly)
	large := measure(t, MTA, countdownLoop, 500, fixnum, flatOnly)
	if small.Err != nil || large.Err != nil {
		t.Fatalf("%v %v", small.Err, large.Err)
	}
	if large.PeakFlat != small.PeakFlat {
		t.Fatalf("MTA loop must run in constant space: S(10)=%d, S(500)=%d",
			small.PeakFlat, large.PeakFlat)
	}
	// Sanity: plain Z_gc on the same sweep is NOT constant.
	gcSmall := measure(t, GC, countdownLoop, 10, fixnum, flatOnly)
	gcLarge := measure(t, GC, countdownLoop, 500, fixnum, flatOnly)
	if gcLarge.PeakFlat <= gcSmall.PeakFlat {
		t.Fatal("control broken: Z_gc should grow")
	}
}

// TestMTAPeriodicCollectionBoundedFactor mirrors Section 12 for frames: with
// collection every k steps the frame run grows to at most O(k), a constant
// factor independent of the input.
func TestMTAPeriodicCollectionBoundedFactor(t *testing.T) {
	fixnum := func(o *Options) { o.CostModel = space.Fixnum }
	lazy := func(o *Options) { o.GCEvery = 20; o.CostModel = space.Fixnum }
	everyStep := measure(t, MTA, countdownLoop, 400, fixnum, flatOnly)
	periodic := measure(t, MTA, countdownLoop, 400, lazy, flatOnly)
	if everyStep.Err != nil || periodic.Err != nil {
		t.Fatalf("%v %v", everyStep.Err, periodic.Err)
	}
	if periodic.PeakFlat < everyStep.PeakFlat {
		t.Fatal("lazier collection cannot shrink space")
	}
	ratio := float64(periodic.PeakFlat) / float64(everyStep.PeakFlat)
	if ratio > 4 {
		t.Fatalf("frame-collection factor blew up: %.2f", ratio)
	}
	// And crucially, the periodic peak is still input-independent.
	periodicSmall := measure(t, MTA, countdownLoop, 50, lazy, flatOnly)
	if periodic.PeakFlat != periodicSmall.PeakFlat {
		t.Fatalf("periodic MTA must stay constant in n: S(50)=%d S(400)=%d",
			periodicSmall.PeakFlat, periodic.PeakFlat)
	}
}

func TestMTAEscapesSurviveCompression(t *testing.T) {
	// A continuation captured before compression must still work after
	// frames around it were collapsed.
	src := `
(define (loop n k)
  (if (zero? n) (k 'done) (loop (- n 1) k)))
(call/cc (lambda (k) (loop 100 k)))`
	res, err := RunProgram(src, Options{Variant: MTA, Measure: true, GCEvery: 3})
	if err != nil || res.Err != nil {
		t.Fatalf("%v %v", err, res.Err)
	}
	if res.Answer != "done" {
		t.Fatalf("answer %q", res.Answer)
	}
}
