package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"testing"

	"tailspace/internal/corpus"
	"tailspace/internal/env"
	"tailspace/internal/obs"
	"tailspace/internal/space"
	"tailspace/internal/value"
)

// checkedMeter is a space.Meter that measures every observation with both
// meters on the same store, the incremental DeltaMeter and the FullMeter
// oracle, and records the first observation where Flat or Linked differ. It
// returns the DeltaMeter's figures, so the run is the one a default run
// would make. It is an event sink too: the transition event of every
// checked observation must carry value.Depth of the κ the meters priced,
// a count independent of the runner's.
//
// every > 1 consults the oracle only on every every-th observation and on
// each discontinuous continuation jump (call/cc re-entry, an escape out of
// a deep recursion), for runs whose configurations are too large to walk on
// every transition.
type checkedMeter struct {
	delta *space.DeltaMeter
	full  *space.FullMeter
	every int

	step    int // the observation being measured
	next    int // observations so far
	check   bool
	checked int
	prevK   value.Cont
	depth   int // value.Depth of the checked observation's κ, or -1
	depths  int // transition events whose depth was checked
	diff    string
}

func newCheckedMeter(model space.CostModel, every int) *checkedMeter {
	return &checkedMeter{delta: space.NewDeltaMeter(model), full: space.NewFullMeter(model), every: every}
}

func (m *checkedMeter) Attach(st *value.Store) {
	m.delta.Attach(st)
	m.full.Attach(st)
}

func (m *checkedMeter) Flat(val value.Value, rho env.Env, k value.Cont, st *value.Store) int {
	m.step, m.next = m.next, m.next+1
	m.check = m.every <= 1 || m.step%m.every == 0 || jumped(m.prevK, k)
	m.prevK = k
	got := m.delta.Flat(val, rho, k, st)
	m.depth = -1
	if m.check {
		m.checked++
		m.compare("Flat", got, m.full.Flat(val, rho, k, st))
		m.depth = value.Depth(k)
	}
	return got
}

func (m *checkedMeter) Linked(val value.Value, rho env.Env, k value.Cont, st *value.Store) int {
	got := m.delta.Linked(val, rho, k, st)
	if m.check {
		m.compare("Linked", got, m.full.Linked(val, rho, k, st))
	}
	return got
}

// Emit checks the depth a transition event carries; the runner emits it
// after measuring the configuration the event describes.
func (m *checkedMeter) Emit(e obs.Event) {
	if e.Type != obs.EventTransition || m.depth < 0 {
		return
	}
	m.depths++
	if e.Depth != m.depth && m.diff == "" {
		m.diff = fmt.Sprintf("step %d: transition event depth %d, value.Depth %d", e.Step, e.Depth, m.depth)
	}
}

func (m *checkedMeter) compare(what string, delta, full int) {
	if delta != full && m.diff == "" {
		m.diff = fmt.Sprintf("step %d: %s delta=%d full=%d", m.step, what, delta, full)
	}
}

// jumped reports a continuation change that is not a push, pop or
// replacement of the top frame.
func jumped(prev, k value.Cont) bool {
	switch {
	case prev == nil || k == nil || k == prev:
		return false
	case k.Next() == prev || prev.Next() == k || k.Next() == prev.Next():
		return false
	}
	return true
}

// meterCell is one cell of the differential grid: a machine (Z_stack also
// with StackStrict), an argument order and a cost model.
type meterCell struct {
	v      Variant
	strict bool
	order  ArgOrder
	model  space.CostModel
}

func (c meterCell) machine() string {
	if c.strict {
		return c.v.Name + "-strict"
	}
	return c.v.Name
}

func (c meterCell) String() string {
	order := "l2r"
	if c.order == RightToLeft {
		order = "r2l"
	}
	return c.machine() + "/" + order + "/" + c.model.Name()
}

// eachMachineModel runs f in a parallel subtest named machine/model for
// every machine (MTA included, Z_stack also with StackStrict) and cost
// model, once per deterministic argument order.
func eachMachineModel(t *testing.T, f func(t *testing.T, c meterCell)) {
	machines := []meterCell{{v: Stack, strict: true}}
	for _, v := range AllVariants {
		machines = append(machines, meterCell{v: v})
	}
	for _, m := range machines {
		for _, model := range space.Models {
			m := m
			m.model = model
			t.Run(m.machine()+"/"+model.Name(), func(t *testing.T) {
				t.Parallel()
				for _, order := range []ArgOrder{LeftToRight, RightToLeft} {
					c := m
					c.order = order
					f(t, c)
				}
			})
		}
	}
}

// runChecked runs src once in cell c under a checkedMeter and fails the
// test at the first observation where the meters disagree, or where a
// transition event's depth differs from value.Depth.
func runChecked(t *testing.T, name, src string, c meterCell, maxSteps, gcEvery, every int) Result {
	t.Helper()
	m := newCheckedMeter(c.model, every)
	res, err := RunProgram(src, Options{
		Variant: c.v, StackStrict: c.strict, Order: c.order,
		Measure: true, GCEvery: gcEvery, MaxSteps: maxSteps,
		CostModel: c.model, Meter: m, Events: m,
	})
	if err != nil {
		t.Fatalf("%s [%s]: %v", name, c, err)
	}
	if m.diff != "" {
		t.Errorf("%s [%s]: differs at %s", name, c, m.diff)
	}
	if m.checked == 0 {
		t.Errorf("%s [%s]: no observation was checked", name, c)
	}
	if m.depths == 0 && res.Steps > 0 {
		t.Errorf("%s [%s]: no transition event's depth was checked", name, c)
	}
	return res
}

// TestDeltaMeterMatchesFullMeterOnCorpus is the differential suite for the
// metering pipeline: every corpus program in every cell of the grid —
// all nine machines and Z_stack's strict deletion, both argument orders,
// every cost model — measured once with a checkedMeter, so the incremental
// DeltaMeter must equal the FullMeter oracle on every observation, Flat and
// Linked alike. The delta meter is an optimization, not an approximation:
// under LogModel too, where the charge components are maintained
// incrementally and the pointer width is applied at observation time
// (DESIGN.md §12).
//
// MaxSteps is capped well below the default: the oracle walks the whole
// configuration on every transition — O(steps × reachable cells), quadratic
// on deep-continuation programs — which would otherwise dominate the
// suite's runtime.
func TestDeltaMeterMatchesFullMeterOnCorpus(t *testing.T) {
	maxSteps := 1_200
	if testing.Short() {
		maxSteps = 500
	}
	eachMachineModel(t, func(t *testing.T, c meterCell) {
		for _, p := range corpus.All() {
			runChecked(t, p.Name, p.Source, c, maxSteps, 1, 1)
		}
	})
}

// accountEdgeCases are programs aimed at the ways the Figure 8 account can
// drift: cells whose value switches between closures and numbers, cells
// deleted by Z_stack while they hold the only closure over a rib, shadowed
// rib chains (which the account counts per environment, not per rib),
// escapes re-entered and kept in cells, and push frames re-entered after
// their call returned.
var accountEdgeCases = []struct {
	name, src, answer string
}{
	{"set-closure-number", `
(define (mk y) (lambda () y))
(define c (mk 1))
(define (flip n acc)
  (if (zero? n)
      acc
      (begin (set! c n)
             (let ((x c))
               (set! c (mk x))
               (flip (- n 1) (+ acc (c)))))))
(flip 5 (c))`, "16"},
	{"stack-deletes-closure-cell", `
(define (f y) ((lambda (g) (g)) (lambda () y)))
(+ (f 1) (f 2))`, "3"},
	{"shadowed-lambda", `
(define (f x) ((lambda (x) (lambda () x)) (+ x 1)))
(define (g x) (let ((h (f x))) (lambda (x) (+ x (h)))))
((g 1) 10)`, "12"},
	{"rebound-primitive", `
(define (list a b c) (cons a (cons b (cons c '()))))
(define (twice f) (lambda (x) (f (f x))))
(list ((twice car) (list (list 1 2 3) 4 5)) 2 3)`, "(1 2 3)"},
	{"reentered-escape", `
(define k0 #f)
(define n 0)
(define (count-to m)
  (let ((v (call/cc (lambda (k) (set! k0 k) 0))))
    (set! n (+ n 1))
    (if (< v m) (k0 (+ v 1)) v)))
(let ((r (count-to 5))) (cons r n))`, "(5 . 6)"},
	{"generator", `
(define (make-gen lst)
  (define return #f)
  (define resume #f)
  (define (walk l)
    (if (null? l)
        (return 'done)
        (begin
          (call/cc (lambda (k) (set! resume k) (return (car l))))
          (walk (cdr l)))))
  (lambda ()
    (call/cc (lambda (r)
      (set! return r)
      (if resume (resume #f) (walk lst))))))
(define g (make-gen '(1 2 3)))
(let* ((a (g)) (b (g)) (c (g)) (d (g))) (list a b c d))`, "(1 2 3 done)"},
	{"reentered-push-frames", reenteredPushFrame, "((1 20) 3)"},
}

// TestLinkedAccountEdgeCases checks the edge-case programs, and the
// corpus's call/cc programs, per observation in every grid cell.
func TestLinkedAccountEdgeCases(t *testing.T) {
	cases := accountEdgeCases
	for _, name := range []string{"generator", "callcc-product"} {
		p, ok := corpus.ByName(name)
		if !ok {
			t.Fatalf("corpus program %s missing", name)
		}
		cases = append(cases, struct{ name, src, answer string }{"corpus-" + name, p.Source, p.Answer})
	}
	eachMachineModel(t, func(t *testing.T, c meterCell) {
		for _, p := range cases {
			res := runChecked(t, p.name, p.src, c, 0, 1, 1)
			if res.Err != nil {
				var stuck *StuckError
				if c.strict && errors.As(res.Err, &stuck) {
					continue // strict deletion may leave a dangling pointer
				}
				t.Errorf("%s [%s]: %v", p.name, c, res.Err)
			} else if res.Answer != p.answer {
				t.Errorf("%s [%s]: answer %s, want %s", p.name, c, res.Answer, p.answer)
			}
		}
	})
}

// TestLinkedAccountDeepEscape captures an escape at continuation depth
// 10^5 and returns to the top. There it spins long enough for the
// collector (every 500,000 steps) to reclaim the cell call/cc bound the
// escape to, invokes the escape from the top, and leaves the bottom again
// through an escape captured at the top. Clearing saved then drops the last
// reference to the 10^5-frame chain, which leaves the account in one store
// hook. The account's cascades run on an explicit stack; the goroutine
// stack limit is lowered to 1 MiB for the run, which a release recursing
// once per frame would exceed. The oracle walks the 10^5-frame
// continuation, so it is consulted on every 500,000th observation and on
// every jump.
func TestLinkedAccountDeepEscape(t *testing.T) {
	if testing.Short() {
		t.Skip("3.5M metered transitions")
	}
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	const src = `
(define saved #f)
(define exit-top #f)
(define (deep n)
  (if (zero? n)
      (let ((v (call/cc (lambda (k) (set! saved k) 0))))
        (if (zero? v) 0 (exit-top v)))
      (+ 1 (deep (- n 1)))))
(define (spin n) (if (zero? n) 0 (spin (- n 1))))
(define (main)
  (let ((r (call/cc (lambda (top)
                      (set! exit-top top)
                      (let ((d (deep 100000)))
                        (spin 30000)
                        (saved d))))))
    (set! saved #f)
    (+ r 1000)))
(main)`
	c := meterCell{v: Tail, order: LeftToRight, model: space.Log}
	res := runChecked(t, "deep-escape", src, c, 10_000_000, 500_000, 500_000)
	if res.Err != nil || res.Answer != "101000" {
		t.Fatalf("deep-escape: answer %q err %v, want 101000", res.Answer, res.Err)
	}
	if res.PeakContDepth < 100_000 {
		t.Fatalf("deep-escape: peak continuation depth %d, want ≥ 10^5", res.PeakContDepth)
	}
}

func diffResults(full, delta Result) string {
	if full.PeakFlat != delta.PeakFlat {
		return fmt.Sprintf("PeakFlat full=%d delta=%d", full.PeakFlat, delta.PeakFlat)
	}
	if full.PeakLinked != delta.PeakLinked {
		return fmt.Sprintf("PeakLinked full=%d delta=%d", full.PeakLinked, delta.PeakLinked)
	}
	if full.PeakHeap != delta.PeakHeap {
		return fmt.Sprintf("PeakHeap full=%d delta=%d", full.PeakHeap, delta.PeakHeap)
	}
	if full.Steps != delta.Steps {
		return fmt.Sprintf("Steps full=%d delta=%d", full.Steps, delta.Steps)
	}
	if full.Answer != delta.Answer {
		return fmt.Sprintf("Answer full=%q delta=%q", full.Answer, delta.Answer)
	}
	if !sameRunError(full.Err, delta.Err) {
		return fmt.Sprintf("Err full=%v delta=%v", full.Err, delta.Err)
	}
	return ""
}

func sameRunError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if errors.Is(a, ErrMaxSteps) && errors.Is(b, ErrMaxSteps) {
		return true
	}
	return a.Error() == b.Error()
}
