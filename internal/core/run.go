package core

import (
	"errors"
	"fmt"

	"tailspace/internal/ast"
	"tailspace/internal/env"
	"tailspace/internal/expand"
	"tailspace/internal/obs"
	"tailspace/internal/prim"
	"tailspace/internal/space"
	"tailspace/internal/value"
)

// Options configures a run of a reference implementation.
type Options struct {
	// Variant selects the reference implementation; zero value is Z_tail.
	Variant Variant
	// MaxSteps bounds the computation; 0 means the default (5 million).
	MaxSteps int
	// GCEvery applies the garbage collection rule after every k-th
	// transition. 0 — the zero value — selects the default policy: collect
	// after every transition when Measure is set (the space-efficient
	// computations of Definition 21), never otherwise. GCEveryOff (-1)
	// disables the rule unconditionally; combining it with Measure is an
	// error (ErrMeasureNeedsGC), because peaks over a collection-free
	// computation would report uncollected garbage as live space. Values
	// larger than 1 model the Section 12 argument that a real collector
	// running every k steps stays within a constant factor R.
	GCEvery int
	// Order resolves the nondeterministic permutation π.
	Order ArgOrder
	// StackStrict makes Z_stack delete whole frames (A = {β1,...,βn}),
	// sticking when the deletion would create a dangling pointer. The
	// default deletes the maximal safe subset of each frame.
	StackStrict bool
	// Measure enables space accounting (it dominates run time; experiments
	// need it, answer-only runs don't).
	Measure bool
	// FlatOnly skips the Figure 8 linked measurement; sweeps that only fit
	// S_X set it. The default DeltaMeter builds its linked account on the
	// first Linked call and then pays O(references gained or lost) per
	// step, so a flat-only run never builds it; under FullMeter the linked
	// walk is O(configuration) per step.
	FlatOnly bool
	// CostModel selects the space cost model for measurement: space.Word
	// (Figure 7/8 word counts, the default when nil), space.Fixnum
	// (fixed-precision numbers), or space.Log (logarithmic pointer costs).
	CostModel space.CostModel
	// Meter overrides the space meter used when Measure is set. nil — the
	// default — builds a fresh space.DeltaMeter (incremental, O(cells
	// touched) per transition) for each run; pass space.NewFullMeter to
	// measure with the from-scratch recomputation oracle instead. A Meter
	// carries per-run state and must not be shared between concurrent runs.
	Meter space.Meter
	// Seed, when non-zero, reseeds the store's random source.
	Seed int64
	// MapStore runs against the map-backed reference store representation
	// instead of the default arena. Both produce identical observations (the
	// differential suite pins this); the reference exists to be slow and
	// obviously correct.
	MapStore bool
	// Trace, when set, receives one TracePoint per transition (after the GC
	// rule has run) — the space-over-time series behind a space profile.
	// The hook fires with or without Measure; TracePoint.Measured tells a
	// sink whether the Flat/Linked fields were actually computed (without
	// Measure they are zero because they were never measured, not because
	// the configuration was free).
	Trace func(TracePoint)
	// Events, when set, receives the structured observability stream: one
	// transition event per step (tagged with the machine rule that fired),
	// one event per GC-rule application (with the cells it reclaimed), one
	// event per store allocation (attributed to the allocating expression),
	// and one event per peak update. A nil sink costs nothing beyond a few
	// nil checks; use an obs.Ring to keep long traces bounded-memory.
	Events obs.Sink
	// TraceID, when non-empty, stamps every emitted event with a request
	// trace identifier (Event.Trace), tying the engine's stream to the
	// serving request that started the run. It only takes effect when
	// Events is non-nil: the stamping wraps the sink once at run start, so
	// the nil-Events fast path stays allocation-free (pinned by
	// BenchmarkEventStamping).
	TraceID string
	// AttributePeak, combined with Measure, rebuilds a peak-attribution
	// snapshot whenever the flat-space peak is raised; after the run,
	// Result.Peak names the source expression, machine rule, continuation
	// chain, and live ribs of the configuration that realized S_X(P, D).
	// Each rebuild is bounded (it snapshots at most a fixed number of
	// frames), but monotonically growing runs rebuild often; leave it off
	// for plain sweeps.
	AttributePeak bool
	// Cancel, when non-nil, aborts the run when the channel is closed (or
	// receives): the step loop polls it every DefaultCancelEvery transitions
	// with a non-blocking select, so the hot path stays allocation-free, and
	// returns a Result with Err == ErrCancelled whose Steps, peaks, and
	// Metrics consistently describe the prefix of the computation that ran.
	// Pass a context's Done() channel to integrate with context
	// cancellation and deadlines.
	Cancel <-chan struct{}
}

// TracePoint is one sample of a run's space profile.
type TracePoint struct {
	Step      int
	Flat      int // Figure 7 space of the configuration (plus |P|)
	Linked    int // Figure 8 space (0 when FlatOnly)
	Heap      int // live store locations
	ContDepth int
	// Measured distinguishes "measured as zero" from "not measured": it is
	// true iff the run had Options.Measure set, i.e. iff Flat (and, unless
	// FlatOnly, Linked) carry real Figure 7/8 measurements. Heap and
	// ContDepth are always sampled.
	Measured bool
}

const defaultMaxSteps = 5_000_000

// GCEveryOff disables the garbage collection rule unconditionally (see
// Options.GCEvery).
const GCEveryOff = -1

// Result reports a finished (or stuck) run.
type Result struct {
	// Value is the final value; nil when the run stuck or hit MaxSteps.
	Value value.Value
	// Answer is the rendered observable answer (Definition 11).
	Answer string
	// Steps counts transitions, excluding applications of the GC rule.
	Steps int
	// ProgramSize is |P|, the AST node count added by Definition 23.
	ProgramSize int
	// PeakFlat is |P| + max over configurations of Figure 7 space: the
	// program's contribution to S_X(P, D). Zero unless Options.Measure.
	PeakFlat int
	// PeakLinked is |P| + max configuration space under Figure 8: the
	// contribution to U_X(P, D). Zero unless Options.Measure.
	PeakLinked int
	// PeakHeap is the maximum number of live store locations.
	PeakHeap int
	// PeakContDepth is the maximum continuation chain length.
	PeakContDepth int
	// Collections and Collected count GC-rule applications and the
	// locations they reclaimed.
	Collections int
	Collected   int
	// Metrics is the run's counter/gauge registry: transitions by rule,
	// GC activity, allocation totals, and the peaks as gauges. It is always
	// populated (per-rule counting is a dense array increment per step);
	// the per-rule counters sum to Steps.
	Metrics *obs.Metrics
	// Peak attributes the flat-space peak; nil unless Options.AttributePeak
	// and Options.Measure were both set.
	Peak *obs.PeakReport
	// Err is nil on normal termination; a *StuckError for stuck
	// computations; ErrMaxSteps when the step bound was hit.
	Err error
	// Store is the final store, for inspecting the result value.
	Store *value.Store
}

// ErrMaxSteps reports that a run exceeded its step bound.
var ErrMaxSteps = errors.New("core: maximum step count exceeded")

// ErrCancelled reports that a run was aborted through Options.Cancel. It is
// a distinguished outcome beside ErrMaxSteps and *StuckError: the machine
// state was consistent when the run stopped (the poll sits between
// transitions), it just did not get to finish.
var ErrCancelled = errors.New("core: run cancelled")

// DefaultCancelEvery is the Options.Cancel polling period, in
// transitions. At the corpus's measured rates (hundreds of thousands to
// millions of transitions per second) 1024 bounds the cancellation latency
// well under a millisecond while keeping the poll invisible in profiles.
const DefaultCancelEvery = 1024

// ErrMeasureNeedsGC reports Options.Measure combined with GCEveryOff: space
// accounting over a computation that never collects would report uncollected
// garbage as live space, so the combination is rejected rather than silently
// re-enabling the rule.
var ErrMeasureNeedsGC = errors.New("core: Options.Measure requires the GC rule (GCEvery >= 0)")

// Runner drives a machine from an initial configuration to a final one,
// applying the garbage collection rule, recording space peaks, and feeding
// the observability layer (per-rule counters, the event stream, and peak
// attribution).
type Runner struct {
	opts    Options
	machine *Machine
	meter   space.Meter

	ruleCounts [NumRules]int64
	peaks      space.Peaks
	// lastExpr is the most recently evaluated expression, the attribution
	// target for allocations and peaks reached in value configurations.
	lastExpr ast.Expr
	nodeIDs  map[ast.Expr]int
	tap      *allocTap
	// gcSnap witnesses the configuration at the end of the last collection,
	// for the root-delta fast path (see collect).
	gcSnap gcSnapshot
	// depthK/depthVal memoize the continuation depth of the previous
	// observation. One transition moves the continuation by at most one
	// frame (push, pop, or replace-top), so the next depth is one pointer
	// compare away; only a discontinuous jump — call/cc re-entry, MTA
	// chain compression — pays the full value.Depth walk, which is
	// O(depth) per step and used to dominate deep-recursion profiles.
	depthK     value.Cont
	depthVal   int
	depthValid bool
}

// gcSnapshot captures what the last collection saw. If the next collection's
// configuration has the same continuation and environment (pointer-equal —
// Env and Cont are comparable), a location-free value register both times,
// and the store's mutation counter unchanged, then its root set is identical
// and the store holds exactly what the last collection kept — so collecting
// again is provably a no-op and the trace can be skipped.
type gcSnapshot struct {
	k        value.Cont
	env      env.Env
	valClean bool
	mut      uint64
	valid    bool
}

// NewRunner prepares a run of program expression e applied under opts. The
// initial environment and store are ρ0 and σ0 with the standard procedures.
func NewRunner(opts Options) *Runner {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = defaultMaxSteps
	}
	if opts.Variant.Name == "" {
		opts.Variant = Tail
	}
	meter := opts.Meter
	if meter == nil {
		meter = space.NewDeltaMeter(opts.CostModel)
	}
	// Trace stamping decorates the sink once here; with a nil sink
	// StampTrace returns nil and the run keeps its zero-cost path.
	opts.Events = obs.StampTrace(opts.Events, opts.TraceID)
	return &Runner{opts: opts, meter: meter}
}

// Run evaluates e from (E, ρ0, halt, σ0).
func (r *Runner) Run(e ast.Expr) (res Result) {
	if r.opts.Measure && r.opts.GCEvery < 0 {
		return Result{ProgramSize: e.Size(), Err: ErrMeasureNeedsGC}
	}
	// Expander output is already interned; this covers syntax built
	// programmatically (the CPS converter, tests), since the machine resolves
	// identifiers by Symbol alone.
	ast.InternSyms(e)
	var rho0 env.Env
	var st *value.Store
	if r.opts.MapStore {
		rho0, st = prim.GlobalInto(value.NewMapStore())
	} else {
		rho0, st = prim.Global()
	}
	if r.opts.Seed != 0 {
		st.Rand.Seed(r.opts.Seed)
	}
	r.machine = NewMachine(r.opts.Variant, st)
	r.machine.SetOrder(r.opts.Order)
	r.machine.SetStackStrict(r.opts.StackStrict)
	if r.opts.Measure {
		r.meter.Attach(st)
	}

	// Observability setup. The runner always counts transitions per rule
	// (a dense array increment per step); everything else is wired only on
	// request so an unobserved run pays a few nil checks.
	r.ruleCounts = [NumRules]int64{}
	r.peaks = space.Peaks{}
	r.lastExpr = e
	observing := r.opts.Events != nil
	if observing || r.opts.AttributePeak {
		r.nodeIDs = ast.Number(e)
	}
	if observing {
		r.peaks.OnUpdate = func(kind space.PeakKind, step, v int) {
			r.opts.Events.Emit(obs.Event{Type: obs.EventPeak, Step: step, Peak: kind.String(), Value: v})
		}
		// The allocation tap attributes store allocations to the allocating
		// expression; it attaches after the globals are installed, so only
		// the program's own allocations are streamed.
		r.tap = &allocTap{sink: r.opts.Events, ids: r.nodeIDs, expr: e}
		st.AddObserver(r.tap)
		defer st.RemoveObserver(r.tap)
	}
	defer func() { res.Metrics = r.buildMetrics(&res, st) }()

	res = Result{ProgramSize: e.Size(), Store: st}
	s := EvalState(e, rho0, value.Halt{})

	gcEvery := r.opts.GCEvery
	switch {
	case gcEvery < 0:
		// GCEveryOff: the rule never fires.
		gcEvery = 0
	case gcEvery == 0 && r.opts.Measure:
		// Default policy: space-efficient computations (Definition 21)
		// require the GC rule whenever garbage remains.
		gcEvery = 1
	}

	cancel := r.opts.Cancel

	r.observe(&res, s, st, RuleNone)
	for {
		if res.Steps >= r.opts.MaxSteps {
			res.Err = ErrMaxSteps
			return res
		}
		if cancel != nil && res.Steps%DefaultCancelEvery == 0 {
			select {
			case <-cancel:
				res.Err = ErrCancelled
				return res
			default:
			}
		}
		if s.Expr != nil {
			r.lastExpr = s.Expr
		}
		if r.tap != nil {
			r.tap.step = res.Steps + 1
			r.tap.expr = r.lastExpr
		}
		next, done, err := r.machine.Step(s)
		if err != nil {
			res.Err = err
			return res
		}
		if done {
			res.Value = next.Val
			res.Answer = Answer(next.Val, st)
			return res
		}
		s = next
		res.Steps++
		r.ruleCounts[r.machine.LastRule()]++
		if gcEvery > 0 && res.Steps%gcEvery == 0 {
			if r.opts.Variant.CompressFrames {
				s.K = CompressReturnChains(s.K)
			}
			collected := r.collect(s, st)
			if observing {
				r.opts.Events.Emit(obs.Event{
					Type: obs.EventGC, Step: res.Steps,
					Reclaimed: collected, Heap: st.Size(),
				})
			}
			if collected > 0 {
				res.Collections++
				res.Collected += collected
			}
		}
		r.observe(&res, s, st, r.machine.LastRule())
	}
}

// collect applies the garbage collection rule to the current configuration.
// The root-delta fast path: when the configuration's continuation and
// environment are the very ones the last collection traced, the value
// register mentions no locations either time, and the store has not been
// touched since, the root set and store contents are unchanged — the trace
// would keep everything it kept before, so it is skipped. Any allocation,
// set!, deletion, or continuation/environment change falls back to the full
// trace.
func (r *Runner) collect(s State, st *value.Store) int {
	snap := &r.gcSnap
	if snap.valid &&
		s.K == snap.k && s.Env == snap.env &&
		snap.valClean && valLocFree(s.Val) &&
		st.Mutations() == snap.mut {
		return 0
	}
	collected := st.Collect(s.Val, s.Env, s.K)
	*snap = gcSnapshot{
		k:        s.K,
		env:      s.Env,
		valClean: valLocFree(s.Val),
		mut:      st.Mutations(),
		valid:    true,
	}
	return collected
}

// valLocFree reports whether a value register contributes no GC roots:
// value.Locations(v, nil) is empty for every case listed here.
func valLocFree(v value.Value) bool {
	switch v.(type) {
	case nil, value.Bool, value.Num, value.Sym, value.Str, value.Char,
		value.Null, value.Unspecified, value.Undefined, *value.Primop:
		return true
	}
	return false
}

// contDepth resolves value.Depth(k) through the single-frame memo.
func (r *Runner) contDepth(k value.Cont) int {
	switch {
	case r.depthValid && k == r.depthK:
		// Same continuation (tail transitions): depth unchanged.
	case r.depthValid && k != nil && k.Next() == r.depthK:
		r.depthVal++ // one frame pushed
	case r.depthValid && r.depthK != nil && r.depthK.Next() == k:
		r.depthVal-- // one frame popped
	case r.depthValid && k != nil && r.depthK != nil && k.Next() == r.depthK.Next():
		// Top frame replaced (push-next, select): depth unchanged.
	default:
		r.depthVal = value.Depth(k)
	}
	r.depthK = k
	r.depthValid = true
	return r.depthVal
}

// observe samples the configuration s that rule just produced: peaks,
// trace points, and transition events.
func (r *Runner) observe(res *Result, s State, st *value.Store, rule Rule) {
	heap := st.Size()
	depth := r.contDepth(s.K)
	r.peaks.Observe(space.PeakHeap, res.Steps, heap)
	r.peaks.Observe(space.PeakContDepth, res.Steps, depth)
	res.PeakHeap = r.peaks.Get(space.PeakHeap)
	res.PeakContDepth = r.peaks.Get(space.PeakContDepth)

	var flat, linked int
	if r.opts.Measure {
		flat = res.ProgramSize + r.meter.Flat(s.Val, s.Env, s.K, st)
		if r.peaks.Observe(space.PeakFlat, res.Steps, flat) && r.opts.AttributePeak {
			res.Peak = r.attributePeak(res.Steps, flat, s, st, rule)
		}
		res.PeakFlat = r.peaks.Get(space.PeakFlat)
		if !r.opts.FlatOnly {
			linked = res.ProgramSize + r.meter.Linked(s.Val, s.Env, s.K, st)
			r.peaks.Observe(space.PeakLinked, res.Steps, linked)
			res.PeakLinked = r.peaks.Get(space.PeakLinked)
		}
	}
	if r.opts.Trace != nil {
		r.opts.Trace(TracePoint{
			Step: res.Steps, Flat: flat, Linked: linked,
			Heap: heap, ContDepth: depth, Measured: r.opts.Measure,
		})
	}
	if r.opts.Events != nil && res.Steps > 0 {
		r.opts.Events.Emit(obs.Event{
			Type: obs.EventTransition, Step: res.Steps, Rule: rule.String(),
			Flat: flat, Linked: linked, Heap: heap, Depth: depth,
			Measured: r.opts.Measure,
		})
	}
}

// attributePeak snapshots the configuration that raised the flat peak.
func (r *Runner) attributePeak(step, flat int, s State, st *value.Store, rule Rule) *obs.PeakReport {
	expr := s.Expr
	if expr == nil {
		expr = r.lastExpr
	}
	var exprStr string
	var nodeID int
	if expr != nil {
		exprStr = expr.String()
		nodeID = r.nodeIDs[expr]
	}
	return obs.NewPeakReport(r.opts.Variant.Name, step, flat, rule.String(),
		exprStr, nodeID, s.Env, s.K, st, r.opts.CostModel)
}

// buildMetrics assembles the run's registry from the dense per-rule counts
// and the Result's accumulated totals.
func (r *Runner) buildMetrics(res *Result, st *value.Store) *obs.Metrics {
	m := obs.NewMetrics()
	m.Inc(obs.MetricSteps, int64(res.Steps))
	for rule, n := range r.ruleCounts {
		if n > 0 {
			m.Inc(obs.MetricRulePrefix+Rule(rule).String(), n)
		}
	}
	m.Inc(obs.MetricCollections, int64(res.Collections))
	m.Inc(obs.MetricReclaimed, int64(res.Collected))
	if st != nil {
		m.Inc(obs.MetricAllocs, int64(st.Allocs))
	}
	m.SetMax(obs.MetricContDepthMax, int64(res.PeakContDepth))
	m.SetMax(obs.MetricHeapPeak, int64(res.PeakHeap))
	if r.opts.Measure {
		m.SetMax(obs.MetricFlatPeak, int64(res.PeakFlat))
		if !r.opts.FlatOnly {
			m.SetMax(obs.MetricLinkedPeak, int64(res.PeakLinked))
		}
	}
	return m
}

// allocTap is the store observer behind EventAlloc: the runner points it at
// the expression being evaluated before every transition, and every
// allocation the transition performs is attributed to that expression.
type allocTap struct {
	sink obs.Sink
	ids  map[ast.Expr]int
	step int
	expr ast.Expr
}

// StoreAlloc implements value.StoreObserver.
func (t *allocTap) StoreAlloc(l env.Location, _ value.Value) {
	ev := obs.Event{Type: obs.EventAlloc, Step: t.step, Loc: int(l)}
	if t.expr != nil {
		ev.NodeID = t.ids[t.expr]
		ev.Expr = obs.Abbrev(t.expr.String(), 60)
	}
	t.sink.Emit(ev)
}

// StoreSet implements value.StoreObserver (writes are not allocation sites).
func (t *allocTap) StoreSet(env.Location, value.Value, value.Value) {}

// StoreDelete implements value.StoreObserver (reclamation is summarized by
// the GC events instead of one event per cell).
func (t *allocTap) StoreDelete(env.Location, value.Value) {}

// RunProgram parses, expands, and runs program source text.
func RunProgram(src string, opts Options) (Result, error) {
	e, err := expand.ParseProgram(src)
	if err != nil {
		return Result{}, err
	}
	return NewRunner(opts).Run(e), nil
}

// RunApplication builds the Definition 23 initial configuration
// (P D) — the program applied to the input — and runs it. program must
// evaluate to a procedure of one argument; input is an expression (the paper
// uses (quote N)).
func RunApplication(program, input string, opts Options) (Result, error) {
	e, err := ApplicationExpr(program, input)
	if err != nil {
		return Result{}, err
	}
	return NewRunner(opts).Run(e), nil
}

// ApplicationExpr parses program and input sources and builds ((P) D).
func ApplicationExpr(program, input string) (ast.Expr, error) {
	p, err := expand.ParseProgram(program)
	if err != nil {
		return nil, fmt.Errorf("program: %w", err)
	}
	d, err := expand.ParseExpr(input)
	if err != nil {
		return nil, fmt.Errorf("input: %w", err)
	}
	return &ast.Call{Exprs: []ast.Expr{p, d}}, nil
}
