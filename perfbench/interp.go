package main

import (
	"fmt"
	"math/rand"
	"time"

	"tailspace/internal/core"
	"tailspace/internal/corpus"
	"tailspace/internal/expand"
)

// interp: answer-only runs of the corpus. Without metering the GC rule never
// fires, so core's transition function and expand do nearly all the work.

type interpState struct {
	rng   *rand.Rand
	round []interpOp
}

func interpSetup(rng *rand.Rand) (*interpState, error) {
	s := &interpState{rng: rng, round: interpRound(rng)}
	// Warm-up: every distinct program once, on Z_tail.
	for _, p := range corpus.All() {
		if err := runInterpOp(interpOp{Program: p, Machine: core.Tail}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *interpState) next() []interpOp {
	r := s.round
	s.round = interpRound(s.rng)
	return r
}

func interpOptions(op interpOp) core.Options {
	return core.Options{Variant: op.Machine, Order: op.Order}
}

func checkInterp(op interpOp, res core.Result) error {
	if res.Err != nil {
		return fmt.Errorf("%s: %v", op, res.Err)
	}
	if res.Answer != op.Program.Answer {
		return fmt.Errorf("%s: answer %q, want %q", op, res.Answer, op.Program.Answer)
	}
	return nil
}

func runInterpOp(op interpOp) error {
	e, err := expand.ParseProgram(op.Program.Source)
	if err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	return checkInterp(op, core.NewRunner(interpOptions(op)).Run(e))
}

func runInterp(cfg config) (*report, error) {
	s, setupS, err := setUp(cfg.seed, interpSetup, func(*interpState) {})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceInterp(cfg, s)
	}
	rep := &report{}
	w := openWindow(cfg.seconds)
	for w.open() {
		for _, op := range s.next() {
			t0 := time.Now()
			err := runInterpOp(op)
			w.op(time.Since(t0))
			if err != nil {
				rep.fail("%v", err)
			}
		}
		w.endRound()
	}
	return rep, w.endToEnd(rep, setupS)
}

// traceInterp runs each op twice, plain and with spans around
// expand.ParseProgram and (*core.Runner).Run. With no meter and no GC rule,
// Run is all transition stepping.
func traceInterp(cfg config, s *interpState) (*report, error) {
	rep := &report{}
	tr := &tracer{}
	c := newLayerCounts()
	var traced time.Duration
	var ratios []float64 // traced/plain time of each op
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
			var plainErr error
			var plainT, tracedT time.Duration
			plainRun := func() {
				rt0 := readRuntime()
				p0 := time.Now()
				plainErr = runInterpOp(op)
				plainT = time.Since(p0)
				rt = rt.add(readRuntime().sub(rt0))
			}
			var res core.Result
			var d time.Duration
			var goBytes uint64
			var tracedErr error
			tracedRun := func() {
				trace := fmt.Sprintf("interp-%d", ops)
				opID, endOp := tr.start(trace, 0, "interp.op")
				defer func() { tracedT = endOp() }()
				_, endExpand := tr.start(trace, opID, "expand.ParseProgram")
				e, err := expand.ParseProgram(op.Program.Source)
				c.expand += endExpand()
				if err != nil {
					tracedErr = fmt.Errorf("%s: %w", op, err)
					return
				}
				m0 := readRuntime()
				_, endRun := tr.start(trace, opID, "core.Runner.Run")
				res = core.NewRunner(interpOptions(op)).Run(e)
				d = endRun()
				goBytes = readRuntime().sub(m0).allocBytes
				tracedErr = checkInterp(op, res)
			}
			// Whichever run goes second finds the program warm in the CPU
			// caches, so the order alternates.
			if ops%2 == 0 {
				plainRun()
				tracedRun()
			} else {
				tracedRun()
				plainRun()
			}
			if plainErr != nil {
				rep.fail("%v", plainErr)
				continue
			}
			if tracedErr != nil {
				rep.fail("traced %v", tracedErr)
				continue
			}
			traced += tracedT
			ratios = append(ratios, float64(tracedT)/float64(plainT))
			c.addStep(op.Machine.Name, d, res, goBytes)
			c.addRunSetup(op.Machine)
		}
	}
	rep.attempted = ops
	rep.info.WindowS = time.Since(t0).Seconds()
	rep.metrics = map[string]float64{
		"go_gc.cpu_share":      share(rt.gcCPU, rt.totalCPU),
		"go_gc.cycles_per_op":  float64(rt.gcCycles) / float64(ops),
		"trace.overhead_share": overhead(ratios),
	}
	c.metrics(rep.metrics, ops, traced)
	rep.info.Notes = append(rep.info.Notes,
		"interp runs unmetered with the GC rule off: Run is all step, so core.gc.*, space.* and core.unattributed_share are 0")
	var err error
	rep.info.TraceFile, err = tr.write(cfg.traceDir, fmt.Sprintf("interp-seed%d", cfg.seed))
	return rep, err
}
