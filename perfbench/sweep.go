package main

import (
	"fmt"
	"math/rand"
	"time"

	"tailspace/internal/core"
	"tailspace/internal/space"
)

// sweep: spacelab rows. Every cell runs with Measure, GCEvery: 1 and both
// meters, so the Figure 8 meter and the GC rule do most of the work.

type sweepState struct {
	rng   *rand.Rand
	progs []sweepProgram
	round []sweepOp
}

func sweepSetup(rng *rand.Rand) (*sweepState, error) {
	s := &sweepState{rng: rng, progs: sweepPrograms()}
	s.round = sweepRound(rng, s.progs)
	// Warm-up: every distinct program once, at its smallest rung, on Z_tail.
	for i := range s.progs {
		op := sweepOp{Program: &s.progs[i], N: s.progs[i].Ladder[0], Model: space.Word}
		e, err := core.ApplicationExpr(op.Program.Source(op.N), op.input())
		if err != nil {
			return nil, fmt.Errorf("warm-up: %s: %w", op, err)
		}
		if res := core.NewRunner(sweepOptions(op, core.Tail)).Run(e); res.Err != nil {
			return nil, fmt.Errorf("warm-up: %s: %w", op, res.Err)
		}
	}
	return s, nil
}

func (s *sweepState) next() []sweepOp {
	r := s.round
	s.round = sweepRound(s.rng, s.progs)
	return r
}

func (op sweepOp) input() string { return fmt.Sprintf("(quote %d)", op.N) }

func sweepOptions(op sweepOp, v core.Variant) core.Options {
	return core.Options{Variant: v, Measure: true, GCEvery: 1, CostModel: op.Model}
}

// runSweepRow measures one row on all eight machines and checks it. It
// returns each cell's Run time.
func runSweepRow(op sweepOp) ([]time.Duration, error) {
	src := op.Program.Source(op.N)
	results := make([]core.Result, len(core.Variants))
	runs := make([]time.Duration, len(core.Variants))
	for i, v := range core.Variants {
		e, err := core.ApplicationExpr(src, op.input())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", op, err)
		}
		t0 := time.Now()
		results[i] = core.NewRunner(sweepOptions(op, v)).Run(e)
		runs[i] = time.Since(t0)
	}
	if err := checkRow(results); err != nil {
		return nil, fmt.Errorf("%s: %w", op, err)
	}
	return runs, nil
}

// hierarchyChecks are the pointwise inequalities of Theorem 24 that
// `spacelab hierarchy` checks, as (smaller, larger) machine pairs.
var hierarchyChecks = [][2]string{
	{"tail", "gc"}, {"gc", "stack"},
	{"sfs", "evlis"}, {"evlis", "tail"},
	{"sfs", "free"}, {"free", "tail"},
	{"tail", "spaceff"}, {"spaceff", "naive"},
}

// linkedChecks are the Section 13 analogue for linked environments, on the
// machines that can use them.
var linkedChecks = [][2]string{{"tail", "gc"}, {"gc", "stack"}, {"evlis", "tail"}}

// checkRow checks one row of core.Variants results: every run answers, all
// answers agree (Corollary 20), the flat peaks satisfy Theorem 24 pointwise,
// and the linked peaks the Section 13 analogue and U_X ≤ S_X.
func checkRow(results []core.Result) error {
	flat := map[string]int{}
	lnk := map[string]int{}
	for i, v := range core.Variants {
		r := results[i]
		if r.Err != nil {
			return fmt.Errorf("%s: %v", v.Name, r.Err)
		}
		if r.Answer != results[0].Answer {
			return fmt.Errorf("Corollary 20: %s answers %q, %s answers %q",
				v.Name, r.Answer, core.Variants[0].Name, results[0].Answer)
		}
		flat[v.Name] = r.PeakFlat
		lnk[v.Name] = r.PeakLinked
	}
	return checkPeaks(flat, lnk)
}

// checkPeaks checks flat peaks against Theorem 24 and, unless lnk is nil
// (flat-only measurement), linked peaks against the Section 13 analogue and
// U_X ≤ S_X.
func checkPeaks(flat, lnk map[string]int) error {
	for _, c := range hierarchyChecks {
		if flat[c[0]] > flat[c[1]] {
			return fmt.Errorf("Theorem 24: S_%s (%d) > S_%s (%d)", c[0], flat[c[0]], c[1], flat[c[1]])
		}
	}
	if lnk == nil {
		return nil
	}
	for _, c := range linkedChecks {
		if lnk[c[0]] > lnk[c[1]] {
			return fmt.Errorf("Section 13: U_%s (%d) > U_%s (%d)", c[0], lnk[c[0]], c[1], lnk[c[1]])
		}
	}
	for name, s := range flat {
		if lnk[name] > s {
			return fmt.Errorf("U_%s (%d) > S_%s (%d)", name, lnk[name], name, s)
		}
	}
	return nil
}

func runSweep(cfg config) (*report, error) {
	s, setupS, err := setUp(cfg.seed, sweepSetup, func(*sweepState) {})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceSweep(cfg, s)
	}
	rep := &report{}
	w := openWindow(cfg.seconds)
	for w.open() {
		for _, op := range s.next() {
			t0 := time.Now()
			_, err := runSweepRow(op)
			w.op(time.Since(t0))
			if err != nil {
				rep.fail("%v", err)
			}
		}
		w.endRound()
	}
	return rep, w.endToEnd(rep, setupS)
}

// traceSweep runs each row plain, then again cell by cell with spans around
// core.ApplicationExpr and Run, the timed meter, and the re-runs that split
// the GC rule from stepping.
func traceSweep(cfg config, s *sweepState) (*report, error) {
	rep := &report{}
	tr := &tracer{}
	c := newLayerCounts()
	timer := timerCost()
	var plain, traced time.Duration
	var rt rtSample
	ops := 0
	t0 := time.Now()
	limit := time.Duration(cfg.seconds) * time.Second
	for time.Since(t0) < limit {
		for _, op := range s.next() {
			if time.Since(t0) >= limit {
				break
			}
			ops++
			rt0 := readRuntime()
			p0 := time.Now()
			runs, err := runSweepRow(op)
			plain += time.Since(p0)
			rt = rt.add(readRuntime().sub(rt0))
			if err != nil {
				rep.fail("%v", err)
				continue
			}

			trace := fmt.Sprintf("sweep-%d", ops)
			opID, endOp := tr.start(trace, 0, "sweep.row")
			src := op.Program.Source(op.N)
			results := make([]core.Result, len(core.Variants))
			var rowErr error
			for i, v := range core.Variants {
				_, endExpand := tr.start(trace, opID, "core.ApplicationExpr")
				e, err := core.ApplicationExpr(src, op.input())
				c.expand += endExpand()
				if err != nil {
					rowErr = err
					break
				}
				results[i] = c.attributeCell(tr, trace, opID, e, sweepOptions(op, v), runs[i], timer)
			}
			traced += endOp()
			if rowErr == nil {
				rowErr = checkRow(results)
			}
			if rowErr != nil {
				rep.fail("traced %s: %v", op, rowErr)
			}
		}
	}
	rep.attempted = ops
	rep.info.WindowS = time.Since(t0).Seconds()
	rep.metrics = map[string]float64{
		"go_gc.cpu_share":     share(rt.gcCPU, rt.totalCPU),
		"go_gc.cycles_per_op": float64(rt.gcCycles) / float64(ops),
		// The same cells' Run, plain and with the timed meter.
		"trace.overhead_share": overhead(c.overheadRatios),
	}
	c.metrics(rep.metrics, ops, plain)
	line, err := c.layerSum()
	rep.info.Notes = append(rep.info.Notes, line)
	if err != nil {
		rep.fail("%v", err)
	}
	rep.info.Extra = map[string]float64{"timer_ns": float64(timer)}
	rep.info.TraceFile, err = tr.write(cfg.traceDir, fmt.Sprintf("sweep-seed%d", cfg.seed))
	return rep, err
}
