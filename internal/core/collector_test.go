package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"tailspace/internal/corpus"
	"tailspace/internal/env"
	"tailspace/internal/obs"
	"tailspace/internal/space"
	"tailspace/internal/value"
)

// collectorEdgeCases are programs whose garbage includes cycles, the
// structures a reference-counting collector cannot free by counts alone.
// Every cycle in the store passes through a write (set!, set-cdr!,
// vector-set!, letrec initialisation), so each program makes its cycles
// that way and then drops them: a letrec knot per loop iteration, a
// set-cdr! ring per iteration, vectors holding themselves, a knot reachable
// only through an escape stored by set!, generators whose escapes are
// re-entered and then dropped with the generator, knots made and dropped
// between two collections, a cycle through a continuation frame, and push
// frames re-entered after their call returned.
var collectorEdgeCases = []struct{ name, src, answer string }{
	{"inner-define-loop", `
(define (run n acc)
  (define (step x) (+ x n))
  (if (zero? n) acc (run (- n 1) (step acc))))
(run 20 0)`, "210"},
	{"set-cdr-ring", `
(define (ring n)
  (let ((p (list n 2 3)))
    (set-cdr! (cdr (cdr p)) p)
    (car (cdr (cdr (cdr p))))))
(define (loop n acc) (if (zero? n) acc (loop (- n 1) (+ acc (ring n)))))
(loop 10 0)`, "55"},
	{"self-holding-vector", `
(define keep (let ((v (make-vector 3 0))) (vector-set! v 0 v) v))
(define (spin n acc)
  (if (zero? n)
      acc
      (let ((w (make-vector 2 n)))
        (vector-set! w 1 w)
        (spin (- n 1) (+ acc (vector-ref (vector-ref w 1) 0))))))
(+ (spin 10 0) (vector-length (vector-ref keep 0)))`, "58"},
	{"knot-through-stored-escape", `
(define saved #f)
(define count 0)
(define (f n)
  (define (g) (+ n count))
  (let ((v (call/cc (lambda (k) (set! saved k) 0))))
    (set! count (+ count 1))
    (g)))
(define (drive)
  (let ((r (f 5)))
    (if (< count 3)
        (saved 0)
        (begin (set! saved #f) (spin 20) (list r count)))))
(define (spin n) (if (zero? n) 0 (spin (- n 1))))
(drive)`, "(8 3)"},
	{"reentered-generators", `
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
(define (drain g acc)
  (let ((x (g)))
    (if (eq? x 'done) acc (drain g (+ acc x)))))
(define (rounds n acc)
  (if (zero? n) acc (rounds (- n 1) (drain (make-gen (list n 1 2)) acc))))
(rounds 4 0)`, "22"},
	// A knot whose whole life fits between two collections at GCEvery 3
	// and 7: no register ever holds it at a collection, so nothing is
	// decremented when it dies.
	{"short-lived-knots", `
(define (knot n) (letrec ((f (lambda () f))) n))
(define (loop n acc) (if (zero? n) acc (loop (- n 1) (+ acc (knot n)))))
(loop 30 0)`, "465"},
	// A cycle through a continuation frame (self holds an escape whose
	// frames bind self), reachable only through a second cell holding the
	// same escape: clearing x drops the last reference from outside, and
	// only the frame's count falls.
	{"escape-cycle-dropped", `
(define x #f)
(define (g n)
  (let ((self #f))
    (let ((e (call/cc (lambda (k) k))))
      (if (procedure? e)
          (begin (set! self e) (set! x e) n)
          n))))
(define (spin n) (if (zero? n) 0 (spin (- n 1))))
(define (run n acc)
  (if (zero? n)
      acc
      (let ((v (g n)))
        (set! x #f)
        (spin 3)
        (run (- n 1) (+ acc v)))))
(run 5 0)`, "15"},
	// A knot (the closure set-cdr! stores, whose environment binds the
	// younger p and x) whose cycle an ordinary write closes afterwards
	// (set! x p: p's cells are older than x). At GCEvery 50 whole let
	// bodies fall between two collections, so no count on the cycle ever
	// falls.
	{"knot-closed-by-later-write", `
(define (mk n)
  (let ((p (list n)) (x 0))
    (set-cdr! p (lambda () x))
    (set! x p)
    n))
(define (loop n acc) (if (zero? n) acc (loop (- n 1) (+ acc (mk n)))))
(loop 40 0)`, "820"},
	// Two push frames of one call evaluation, each re-entered through an
	// escape after the call has returned.
	{"reentered-push-frames", reenteredPushFrame, "((1 20) 3)"},
}

// collectorGCEvery are the GC-rule periods the collector tests run: every
// transition (Definition 21), and periods at which garbage, cycles
// included, is made and dropped between collections (at 50, whole
// procedure bodies).
var collectorGCEvery = []int{1, 3, 7, 50}

// collectorCell is one run of the collector tests: a machine (Z_stack also
// with strict deletion), an argument order and a GC period.
type collectorCell struct {
	v       Variant
	strict  bool
	order   ArgOrder
	gcEvery int
}

func (c collectorCell) String() string {
	m := c.v.Name
	if c.strict {
		m += "-strict"
	}
	order := "l2r"
	if c.order == RightToLeft {
		order = "r2l"
	}
	return fmt.Sprintf("%s/%s/gc-every-%d", m, order, c.gcEvery)
}

// eachCollectorCell calls f for every machine (MTA included, Z_stack also
// strict), both deterministic argument orders and every collectorGCEvery,
// in one parallel subtest per machine.
func eachCollectorCell(t *testing.T, f func(t *testing.T, c collectorCell)) {
	machines := []collectorCell{{v: Stack, strict: true}}
	for _, v := range AllVariants {
		machines = append(machines, collectorCell{v: v})
	}
	for _, m := range machines {
		m := m
		t.Run(m.v.Name+map[bool]string{true: "-strict"}[m.strict], func(t *testing.T) {
			t.Parallel()
			for _, order := range []ArgOrder{LeftToRight, RightToLeft} {
				for _, every := range collectorGCEvery {
					c := m
					c.order, c.gcEvery = order, every
					f(t, c)
				}
			}
		})
	}
}

// checkEdgeCaseAnswer fails unless res answered want; strict Z_stack may
// instead stick on a dangling deletion.
func checkEdgeCaseAnswer(t *testing.T, name string, c collectorCell, res Result, want string) {
	t.Helper()
	var stuck *StuckError
	switch {
	case res.Err != nil && c.strict && errors.As(res.Err, &stuck):
	case res.Err != nil:
		t.Errorf("%s [%s]: %v", name, c, res.Err)
	case res.Answer != want:
		t.Errorf("%s [%s]: answer %s, want %s", name, c, res.Answer, want)
	}
}

// TestCollectorEdgeCasesArenaMatchesMapStore runs the edge cases through
// the store differential: the arena store against the map store, which
// traces every collection, under every machine, both argument orders and
// several GC periods. Answers, peaks, collection totals, the metrics and
// the whole event stream must agree.
func TestCollectorEdgeCasesArenaMatchesMapStore(t *testing.T) {
	eachCollectorCell(t, func(t *testing.T, c collectorCell) {
		for _, p := range collectorEdgeCases {
			run := func(mapStore bool) (Result, []obs.Event) {
				sink := &sliceSink{}
				res, err := RunProgram(p.src, Options{
					Variant: c.v, StackStrict: c.strict, Order: c.order,
					Measure: true, GCEvery: c.gcEvery, CostModel: space.Fixnum,
					MapStore: mapStore, Events: sink,
				})
				if err != nil {
					t.Fatalf("%s [%s]: %v", p.name, c, err)
				}
				return res, sink.events
			}
			arena, arenaEvents := run(false)
			ref, refEvents := run(true)
			checkEdgeCaseAnswer(t, p.name, c, arena, p.answer)
			if diff := diffStoreRuns(arena, ref); diff != "" {
				t.Errorf("%s [%s]: arena vs map store: %s", p.name, c, diff)
			}
			if diff := diffEventStreams(arenaEvents, refEvents); diff != "" {
				t.Errorf("%s [%s]: event streams diverge: %s", p.name, c, diff)
			}
			if c.gcEvery == 1 && arena.Collected == 0 {
				t.Errorf("%s [%s]: nothing was collected", p.name, c)
			}
		}
	})
}

// checkedCollector is a space.Meter, a store observer and an event sink at
// once. It passes every measurement to the run's own meter and, after every
// step that applied the GC rule, checks the collection against the tracer:
// every live cell must be one Store.Reachable finds, and no cell the
// collection freed may be. The freed cells are the last Reclaimed deletions
// before the step's GC event; deletions before them are Z_stack's. It
// records the first difference with its step.
type checkedCollector struct {
	space.Meter
	gcEvery int

	step    int   // observations so far
	deleted []int // locations deleted since the last observation, in order
	freed   int   // Reclaimed of this step's GC event
	checked int
	diff    string
}

func newCheckedCollector(model space.CostModel, gcEvery int) *checkedCollector {
	return &checkedCollector{Meter: space.NewDeltaMeter(model), gcEvery: gcEvery}
}

func (c *checkedCollector) Attach(st *value.Store) {
	c.Meter.Attach(st)
	st.AddObserver(c)
}

func (c *checkedCollector) Flat(val value.Value, rho env.Env, k value.Cont, st *value.Store) int {
	step := c.step
	c.step++
	if step > 0 && step%c.gcEvery == 0 && c.diff == "" {
		c.check(step, val, rho, k, st)
	}
	c.deleted, c.freed = c.deleted[:0], 0
	return c.Meter.Flat(val, rho, k, st)
}

func (c *checkedCollector) check(step int, val value.Value, rho env.Env, k value.Cont, st *value.Store) {
	c.checked++
	reach := st.Reachable(val, rho, k)
	st.Each(func(l env.Location, _ value.Value) {
		if !reach[l] && c.diff == "" {
			c.diff = fmt.Sprintf("step %d: unreachable cell %d survived the collection", step, l)
		}
	})
	if c.diff != "" {
		return
	}
	if c.freed > len(c.deleted) {
		c.diff = fmt.Sprintf("step %d: the collection reports %d freed, the store %d deleted", step, c.freed, len(c.deleted))
		return
	}
	for _, l := range c.deleted[len(c.deleted)-c.freed:] {
		if reach[env.Location(l)] {
			c.diff = fmt.Sprintf("step %d: the collection freed reachable cell %d", step, l)
			return
		}
	}
}

func (c *checkedCollector) StoreAlloc(env.Location, value.Value)            {}
func (c *checkedCollector) StoreSet(env.Location, value.Value, value.Value) {}
func (c *checkedCollector) StoreDelete(l env.Location, _ value.Value) {
	c.deleted = append(c.deleted, int(l))
}
func (c *checkedCollector) Emit(e obs.Event) {
	if e.Type == obs.EventGC {
		c.freed = e.Reclaimed
	}
}

// runCheckedCollector runs src in cell c under a checkedCollector and fails
// the test at the first collection that differs from the tracer's.
func runCheckedCollector(t *testing.T, name, src string, c collectorCell, model space.CostModel, maxSteps int) Result {
	t.Helper()
	cc := newCheckedCollector(model, c.gcEvery)
	res, err := RunProgram(src, Options{
		Variant: c.v, StackStrict: c.strict, Order: c.order,
		Measure: true, GCEvery: c.gcEvery, MaxSteps: maxSteps,
		CostModel: model, Meter: cc, Events: cc,
	})
	if err != nil {
		t.Fatalf("%s [%s]: %v", name, c, err)
	}
	if cc.diff != "" {
		t.Errorf("%s [%s]: collection differs from the tracer at %s", name, c, cc.diff)
	}
	if cc.checked == 0 && res.Steps >= c.gcEvery {
		t.Errorf("%s [%s]: no collection was checked", name, c)
	}
	return res
}

// TestCheckedCollectorOnCorpus checks every collection of every corpus
// program in every cell of the meter differential's grid against the
// tracer.
func TestCheckedCollectorOnCorpus(t *testing.T) {
	maxSteps := 1_200
	if testing.Short() {
		maxSteps = 500
	}
	eachMachineModel(t, func(t *testing.T, m meterCell) {
		c := collectorCell{v: m.v, strict: m.strict, order: m.order, gcEvery: 1}
		for _, p := range corpus.All() {
			runCheckedCollector(t, p.Name, p.Source, c, m.model, maxSteps)
		}
	})
}

// TestCheckedCollectorOnEdgeCases checks every collection of the edge cases
// against the tracer, and that between them they take both of the cycle
// rule's paths: trial deletion, and the fallback to tracing.
func TestCheckedCollectorOnEdgeCases(t *testing.T) {
	var mu sync.Mutex
	var total value.CollectStats
	t.Run("cells", func(t *testing.T) {
		eachCollectorCell(t, func(t *testing.T, c collectorCell) {
			for _, p := range collectorEdgeCases {
				res := runCheckedCollector(t, p.name, p.src, c, space.Fixnum, 0)
				checkEdgeCaseAnswer(t, p.name, c, res, p.answer)
				st := res.Store.CollectStats()
				mu.Lock()
				total.Trials += st.Trials
				total.Fallbacks += st.Fallbacks
				mu.Unlock()
			}
		})
	})
	if total.Trials == 0 || total.Fallbacks == 0 {
		t.Errorf("the edge cases ran trial deletion in %d collections and fell back to tracing in %d; want both", total.Trials, total.Fallbacks)
	}
}
