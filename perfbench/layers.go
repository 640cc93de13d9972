package main

import (
	"fmt"
	"math"
	"time"

	"tailspace/internal/ast"
	"tailspace/internal/core"
	"tailspace/internal/expand"
	"tailspace/internal/obs"
)

// Layer accounting shared by the traced runs: every layer is timed from
// outside, through the public entry points of its package.

// trivialExpr is the one-step program the traced runs time to price a run's
// fixed set-up (installing ρ0 and σ0).
var trivialExpr = func() ast.Expr {
	e, err := expand.ParseProgram("0")
	if err != nil {
		panic(err)
	}
	return e
}()

// ledger splits cell Run time into layers, measured from outside:
//
//	run = step + gc + flat + linked + unattributed
//
// run is the plain cell's Run; flat and linked are the timed meter's call
// times (corrected by the clock's own cost); step is a meters-off run with
// the GC rule off, and gc is a meters-off run with GCEvery: 1 minus step.
// Both make the same transitions.
type ledger struct {
	run, step, gc, flat, linked time.Duration
}

func (l ledger) unattributed() time.Duration {
	return l.run - l.step - l.gc - l.flat - l.linked
}

func (l *ledger) add(o ledger) {
	l.run += o.run
	l.step += o.step
	l.gc += o.gc
	l.flat += o.flat
	l.linked += o.linked
}

// layerCounts accumulates the counts behind the per-layer metrics.
type layerCounts struct {
	ledger // cells split into layers (sweep rows, serve measure cells)
	expand time.Duration
	// overheadRatios are the ledger's cells' Run times with the timed meter
	// over their plain Run times.
	overheadRatios []float64

	// Step-only runs: no meter, no GC rule.
	stepT          time.Duration
	steps          int64
	storeAllocs    int64
	stepGoBytes    uint64
	stepByMachine  map[string]time.Duration
	stepsByMachine map[string]int64

	flatCalls, linkedCalls int64
	collections, reclaimed int64
	gcApplications         int64
	linkedGoBytes          int64
	setupUS                []float64
}

func newLayerCounts() *layerCounts {
	return &layerCounts{stepByMachine: map[string]time.Duration{}, stepsByMachine: map[string]int64{}}
}

// addStep records a step-only run on machine: its Run time, result and Go
// heap bytes allocated.
func (c *layerCounts) addStep(machine string, d time.Duration, res core.Result, goBytes uint64) {
	c.stepT += d
	c.steps += int64(res.Steps)
	c.storeAllocs += res.Metrics.Counter(obs.MetricAllocs)
	c.stepGoBytes += goBytes
	c.stepByMachine[machine] += d
	c.stepsByMachine[machine] += int64(res.Steps)
}

// addRunSetup times a one-step run on machine: the fixed cost every run
// pays to install ρ0 and σ0.
func (c *layerCounts) addRunSetup(v core.Variant) {
	t0 := time.Now()
	core.NewRunner(core.Options{Variant: v}).Run(trivialExpr)
	c.setupUS = append(c.setupUS, us(time.Since(t0)))
}

// attributeCell re-runs one measured cell of program e to split it into
// layers: once with the timed meter and opts' own settings, once flat-only
// when opts also measures linked space (for the Figure 8 allocation), once
// with the meters off and the GC rule on, and once with both off. plainRun
// is the cell's Run time without any wrapper; timer is the clock cost the
// meter's per-call times are corrected by. It returns the timed run's
// result.
func (c *layerCounts) attributeCell(tr *tracer, trace string, parent int, e ast.Expr, opts core.Options, plainRun, timer time.Duration) core.Result {
	meter := newTimedMeter(opts.CostModel)
	timed := opts
	timed.Meter = meter
	m0 := readRuntime()
	_, endRun := tr.start(trace, parent, "core.Runner.Run+space.Meter")
	res := core.NewRunner(timed).Run(e)
	c.overheadRatios = append(c.overheadRatios, float64(endRun())/float64(plainRun))
	fullBytes := readRuntime().sub(m0).allocBytes

	if !opts.FlatOnly {
		flatOnly := opts
		flatOnly.FlatOnly = true
		m0 = readRuntime()
		core.NewRunner(flatOnly).Run(e)
		c.linkedGoBytes += int64(fullBytes) - int64(readRuntime().sub(m0).allocBytes)
	}

	gcOn := core.Options{Variant: opts.Variant, Order: opts.Order, MaxSteps: opts.MaxSteps, GCEvery: 1}
	_, endGC := tr.start(trace, parent, "core.Runner.Run(gc rule, no meter)")
	core.NewRunner(gcOn).Run(e)
	gcOnT := endGC()

	gcOff := gcOn
	gcOff.GCEvery = core.GCEveryOff
	m0 = readRuntime()
	_, endStep := tr.start(trace, parent, "core.Runner.Run(step only)")
	stepRes := core.NewRunner(gcOff).Run(e)
	stepT := endStep()
	c.addStep(opts.Variant.Name, stepT, stepRes, readRuntime().sub(m0).allocBytes)

	flat := time.Duration(meter.flatNS) - time.Duration(meter.flatCalls)*timer
	linked := time.Duration(meter.linkedNS) - time.Duration(meter.linkedCalls)*timer
	c.ledger.add(ledger{run: plainRun, step: stepT, gc: gcOnT - stepT, flat: flat, linked: linked})
	c.flatCalls += meter.flatCalls
	c.linkedCalls += meter.linkedCalls
	c.collections += int64(res.Collections)
	c.reclaimed += int64(res.Collected)
	// GCEvery: 1 applies the rule after every transition.
	c.gcApplications += int64(res.Steps)

	c.addRunSetup(opts.Variant)
	return res
}

// metrics turns the counts into the per-layer metrics over ops ops; busy is
// the ops' total wall time, the denominator of expand.share.
func (c *layerCounts) metrics(m map[string]float64, ops int, busy time.Duration) {
	n := float64(ops)
	run := float64(c.run)
	calls := c.flatCalls + c.linkedCalls
	m["expand.us_per_op"] = us(c.expand) / n
	m["expand.share"] = share(float64(c.expand), float64(busy))
	m["core.step.ns_per_transition"] = share(float64(c.stepT), float64(c.steps))
	for name, d := range c.stepByMachine {
		m["core.step.ns_per_transition."+name] = share(float64(d), float64(c.stepsByMachine[name]))
	}
	m["core.step.transitions_per_op"] = float64(c.steps) / n
	m["core.step.store_allocs_per_op"] = float64(c.storeAllocs) / n
	m["core.step.go_bytes_per_transition"] = share(float64(c.stepGoBytes), float64(c.steps))
	m["core.run_setup_us"] = median(c.setupUS)
	m["core.gc.ms_per_op"] = ms(c.gc) / n
	m["core.gc.share"] = share(float64(c.gc), run)
	m["core.gc.collections_per_op"] = float64(c.collections) / n
	m["core.gc.reclaimed_per_op"] = float64(c.reclaimed) / n
	m["core.gc.useful_ratio"] = share(float64(c.collections), float64(c.gcApplications))
	m["core.unattributed_share"] = share(float64(c.unattributed()), run)
	m["space.flat.ns_per_call"] = share(float64(c.flat), float64(c.flatCalls))
	m["space.flat.share"] = share(float64(c.flat), run)
	m["space.calls_per_op"] = float64(calls) / n
	m["space.linked.ns_per_call"] = share(float64(c.linked), float64(c.linkedCalls))
	m["space.linked.share"] = share(float64(c.linked), run)
	if c.linkedCalls > 0 {
		m["space.linked.kb_per_op"] = float64(c.linkedGoBytes) / 1024 / n
	}
}

// layerSumTolerance bounds the unattributed remainder's share of Run. The
// parts are measured in separate runs, so the remainder carries their timing
// noise (2–3% of Run on a 2-vCPU machine); past a quarter of Run the parts no
// longer describe the Run they split.
const layerSumTolerance = 0.25

// layerSum is the layer-sum check: step, GC rule, flat and linked meter
// time, each measured in its own run, plus the unattributed remainder make
// up the plain Run time, and the remainder stays within the tolerance. It
// returns the ledger's line for the info notes.
func (c *layerCounts) layerSum() (string, error) {
	l := c.ledger
	u := l.unattributed()
	line := fmt.Sprintf("layer sum (ms): step %.1f + gc rule %.1f + space.flat %.1f + space.linked %.1f + unattributed %.1f = Run %.1f",
		ms(l.step), ms(l.gc), ms(l.flat), ms(l.linked), ms(u), ms(l.run))
	if sh := share(float64(u), float64(l.run)); math.Abs(sh) > layerSumTolerance {
		return line, fmt.Errorf("layer sum: %.0f%% of Run unattributed, beyond ±%.0f%%", 100*sh, 100*layerSumTolerance)
	}
	return line, nil
}
