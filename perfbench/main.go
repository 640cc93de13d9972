// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives three seeded workloads through the public Go APIs of the
// tailspace packages, checks every output, and prints one JSON result line:
//
//	perfbench --workload interp|sweep|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it times whole rounds of ops and reports the end-to-end
// metrics; with --trace 1 it re-runs ops with timing wrappers around each
// layer's entry points and reports the per-layer metrics. NOTES.md explains
// the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is printed on the line before the result: the environment the run
// measured, the sample counts behind the metrics, and notes such as which
// per-layer metrics a workload does not exercise.
type info struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Env        map[string]string  `json:"env"`
	ErrorRatio float64            `json:"error_ratio"`
	WindowS    float64            `json:"window_s"`
	Rounds     int                `json:"rounds,omitempty"`
	Samples    map[string]int     `json:"samples,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
	Failures   []string           `json:"failures,omitempty"`
}

// setupReps is how many times a run sets up; setup_s is their median, so
// one slow set-up (page faults, a GC cycle) does not move it.
const setupReps = 5

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "interp, sweep or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 re-runs ops with per-layer timing and reports per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "directory for the Chrome trace of a traced run (none when empty)")
	flag.Parse()
	cfg.trace = trace == 1
	if flag.NArg() != 0 || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var run func(config) (*report, error)
	switch cfg.workload {
	case "interp":
		run = runInterp
	case "sweep":
		run = runSweep
	case "serve":
		run = runServe
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want interp, sweep or serve)\n", cfg.workload)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report is what a workload run hands back to main.
type report struct {
	attempted int
	failures  []string
	failed    int
	metrics   map[string]float64
	info      info
}

// fail records a failed op; the first few messages go into the output.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) print(cfg config) error {
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	res.Correct = r.failed == 0 && r.attempted > 0
	var absent []string
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			absent = append(absent, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	r.info.Workload = cfg.workload
	r.info.Seed = cfg.seed
	r.info.Trace = cfg.trace
	r.info.Env = environment()
	r.info.ErrorRatio = share(float64(r.failed), float64(r.attempted))
	r.info.Failures = r.failures
	if len(absent) > 0 {
		sort.Strings(absent)
		r.info.Notes = append(r.info.Notes, fmt.Sprintf("reported as 0, not exercised by %s: %v", cfg.workload, absent))
	}
	for _, v := range []any{r.info, res} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics is what an untraced run reports, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_geomean", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"allocs_per_op", "count"},
}

// machineNames are the nine machines of core.AllVariants, for the
// per-machine step metrics.
var machineNames = []string{"tail", "gc", "stack", "evlis", "free", "sfs", "naive", "spaceff", "mta"}

// perLayerMetrics is what a traced run reports, on every workload; a
// workload that does not exercise a layer reports 0 and says so in the
// info line.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"expand.us_per_op", "us"},
		{"expand.share", "ratio"},
		{"core.step.ns_per_transition", "ns"},
	}
	for _, m := range machineNames {
		defs = append(defs, metricDef{"core.step.ns_per_transition." + m, "ns"})
	}
	return append(defs, []metricDef{
		{"core.step.transitions_per_op", "count"},
		{"core.step.store_allocs_per_op", "count"},
		{"core.step.go_bytes_per_transition", "B"},
		{"core.run_setup_us", "us"},
		{"core.gc.ms_per_op", "ms"},
		{"core.gc.share", "ratio"},
		{"core.gc.collections_per_op", "count"},
		{"core.gc.reclaimed_per_op", "count"},
		{"core.gc.useful_ratio", "ratio"},
		{"core.unattributed_share", "ratio"},
		{"space.flat.ns_per_call", "ns"},
		{"space.flat.share", "ratio"},
		{"space.calls_per_op", "count"},
		{"space.linked.ns_per_call", "ns"},
		{"space.linked.share", "ratio"},
		{"space.linked.kb_per_op", "KiB"},
		{"obs.emit_share", "ratio"},
		{"service.http.self_us_p50", "us"},
		{"service.expand_us_p50", "us"},
		{"service.cache.lookup_us_p50", "us"},
		{"service.cache.hit_ratio", "ratio"},
		{"service.pool.queue_wait_ms_p50", "ms"},
		{"service.pool.queue_wait_ms_p90", "ms"},
		{"service.run_ms_p50", "ms"},
		{"service.hit_ms_p50", "ms"},
		{"service.hit_ms_p90", "ms"},
		{"service.miss_ms_p50", "ms"},
		{"service.miss_ms_p90", "ms"},
		{"service.hit_samples", "count"},
		{"service.miss_samples", "count"},
		{"analysis.lint_ms_p50", "ms"},
		{"analysis.classify_ms_p50", "ms"},
		{"go_gc.cpu_share", "ratio"},
		{"go_gc.cycles_per_op", "count"},
		{"trace.overhead_share", "ratio"},
	}...)
}()

// environment is recorded with every result.
func environment() map[string]string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "unset (100)"
	}
	gomaxprocs := fmt.Sprint(runtime.GOMAXPROCS(0))
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		gomaxprocs += " (GOMAXPROCS=" + v + ")"
	}
	return map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": gomaxprocs,
		"gogc":       gogc,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"cpu":        cpuModel(),
	}
}

// setUp runs setup setupReps times and returns the median duration in
// seconds. Every repetition but the last is torn down again; each starts
// from the seed, so all of them generate the same inputs.
func setUp[S any](seed int64, setup func(rng *rand.Rand) (S, error), teardown func(S)) (S, float64, error) {
	var s S
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown(s)
		}
		t0 := time.Now()
		var err error
		s, err = setup(rand.New(rand.NewSource(seed)))
		if err != nil {
			return s, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, median(times), nil
}

// window is the measured part of an untraced run: whole rounds of ops,
// run until the measured time is up. Every timing metric is the median over
// the window's rounds, so one round disturbed by a neighbour on a shared
// machine does not move it.
type window struct {
	start  time.Time
	limit  time.Duration
	rt     rtSample
	rounds []roundStats
	cur    roundStats
	began  time.Time
}

// roundStats are one round's figures.
type roundStats struct {
	dur  time.Duration
	opMS []float64
}

func openWindow(seconds int) *window {
	runtime.GC() // start every window from a collected heap
	return &window{start: time.Now(), limit: time.Duration(seconds) * time.Second, rt: readRuntime()}
}

// open reports whether another round starts, and if so starts it.
func (w *window) open() bool {
	if time.Since(w.start) >= w.limit {
		return false
	}
	w.cur = roundStats{}
	w.began = time.Now()
	return true
}

// op records one op's wall time.
func (w *window) op(d time.Duration) { w.cur.opMS = append(w.cur.opMS, ms(d)) }

// endRound closes the current round.
func (w *window) endRound() {
	w.cur.dur = time.Since(w.began)
	w.rounds = append(w.rounds, w.cur)
}

// endToEnd closes the window and computes the end-to-end metrics.
func (w *window) endToEnd(rep *report, setupS float64) error {
	elapsed := time.Since(w.start)
	rt := readRuntime().sub(w.rt)
	var ops int
	var rates, geomeans []float64
	for _, r := range w.rounds {
		ops += len(r.opMS)
		rates = append(rates, float64(len(r.opMS))/r.dur.Seconds())
		geomeans = append(geomeans, geomean(r.opMS))
	}
	n := float64(ops)
	rep.attempted = ops
	rep.metrics = map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       median(rates),
		"op_ms_geomean":   median(geomeans),
		"alloc_kb_per_op": float64(rt.allocBytes) / 1024 / n,
		"allocs_per_op":   float64(rt.allocObjects) / n,
	}
	rep.info.WindowS = elapsed.Seconds()
	rep.info.Rounds = len(w.rounds)
	// Peak resident memory is recorded but not a metric: on interp it jumps
	// by up to a third between identical runs, with the Go collector's
	// timing against allocation bursts (NOTES.md).
	hwm, err := peakRSSMiB()
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	rep.info.Extra = map[string]float64{
		"window_ops_per_s": n / elapsed.Seconds(),
		"peak_rss_mb":      hwm,
		"go_gc_cycles":     float64(rt.gcCycles),
		"go_gc_cpu_share":  share(rt.gcCPU, rt.totalCPU),
	}
	return nil
}
