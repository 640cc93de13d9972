// Command spacelab regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index):
//
//	spacelab [flags] fig2          Figure 2: static frequency of tail calls
//	spacelab [flags] hierarchy     Figure 6 / Theorem 24: the space-class hierarchy
//	spacelab [flags] thm25         Theorem 25: the four separation programs
//	spacelab [flags] contracts     contract monitoring: naive vs space-efficient monitors
//	spacelab [flags] thm26         Theorem 26 / §13: flat vs linked environments
//	spacelab [flags] costmodels    cost-model robustness: Theorem 25 under word/fixnum/log pricing
//	spacelab [flags] findleftmost  §4: find-leftmost space vs tree shape
//	spacelab [flags] gcfactor      §12: periodic-collection constant factor R
//	spacelab [flags] mta           §14: Cheney-on-the-MTA frame collection
//	spacelab [flags] denot         §16: denotational semantics agreement
//	spacelab [flags] algol         §5/§8: the Algol-like subset of the corpus
//	spacelab [flags] cps           §1/[Ste78]: CPS conversion shape and space
//	spacelab [flags] secd          §15 [Ram97]: classic vs tail recursive SECD
//	spacelab [flags] controlspace  §16: static control-space verdicts vs measurement
//	spacelab [flags] ablation      why return environments must be charged-but-dead
//	spacelab [flags] corollary20   Corollary 20: answer agreement across machines
//	spacelab [flags] all           everything above, in order
//
// Flags:
//
//	-jobs N          bound the number of measurement runs in flight (default: GOMAXPROCS)
//	-cost-model M    price every experiment under cost model M (word|fixnum|log)
//	                 instead of its historical default; the costmodels experiment
//	                 ignores the override (it sweeps all models by design)
//	-json            emit the tables as JSON (machine-readable, for trend tracking)
//	-cpuprofile f    write a CPU profile of the whole invocation to f (go tool pprof)
//	-memprofile f    write an allocation profile taken at exit to f
//
// Two single-program observability modes sit beside the experiments:
//
//	spacelab -explain-peak <program> [-machine M] [-steps N]
//	    run with peak attribution and report, per machine, which source
//	    expression — under which transition rule — realized the flat-space
//	    peak S_X
//	spacelab -profile <program> [-machine M] [-trace f.jsonl] [-chrome f.json] [-ring N]
//	    run once with the structured event stream attached, print the run's
//	    metric registry, and optionally export the retained events as JSONL
//	    or as a Chrome trace_event file (loadable in Perfetto)
//
// <program> is either a path to a Scheme source file or the name of a corpus
// program. Every experiment prints its table and its pass/fail verdict
// against the paper's claims; the process exits non-zero if any claim failed
// or any run ended without an answer (stuck, or out of steps).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"tailspace/internal/corpus"
	"tailspace/internal/experiments"
	"tailspace/internal/obs"
	"tailspace/internal/space"
	"tailspace/internal/version"
)

func main() {
	fs := flag.NewFlagSet("spacelab", flag.ExitOnError)
	fs.Usage = usage
	jobs := fs.Int("jobs", 0, "max measurement runs in flight (<1 means GOMAXPROCS)")
	costModel := fs.String("cost-model", "", "price experiments under this cost model (word|fixnum|log) instead of their defaults")
	jsonOut := fs.Bool("json", false, "emit tables as JSON instead of rendered text")
	explain := fs.String("explain-peak", "", "attribute the flat-space peak of a program (file or corpus name)")
	prof := fs.String("profile", "", "profile one run of a program (file or corpus name) with the event stream attached")
	machine := fs.String("machine", "", "restrict -explain-peak / select -profile machine (tail|gc|stack|evlis|free|sfs|naive|spaceff)")
	traceOut := fs.String("trace", "", "with -profile: write the retained events as JSONL to this file")
	chromeOut := fs.String("chrome", "", "with -profile: write a Chrome trace_event file (Perfetto-loadable)")
	ringCap := fs.Int("ring", obs.DefaultRingCapacity, "with -profile: event ring-buffer capacity (oldest events drop beyond it)")
	steps := fs.Int("steps", 5_000_000, "with -explain-peak/-profile: step bound")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile (taken at exit) to this file")
	showVersion := fs.Bool("version", false, "print version and exit")
	fs.Parse(os.Args[1:])
	if *showVersion {
		version.Print(os.Stdout, "spacelab")
		os.Exit(0)
	}

	// Ctrl-C (or SIGTERM) cancels in-flight measurement runs between
	// transitions: grids stop promptly with a "cancelled" error instead of
	// the process dying mid-table.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	experiments.SetCancel(ctx.Done())

	if *costModel != "" {
		m, merr := space.ModelByName(*costModel)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "spacelab:", merr)
			os.Exit(1)
		}
		experiments.SetCostModel(m)
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spacelab:", err)
		os.Exit(1)
	}
	// Flag modes below exit via os.Exit, which skips deferred calls; exit
	// funnels through this helper so the profiles are always flushed.
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	if *explain != "" || *prof != "" {
		if fs.NArg() != 0 || (*explain != "" && *prof != "") {
			usage()
			exit(2)
		}
		if *explain != "" {
			exit(explainPeak(*explain, *machine, *steps, ctx.Done()))
		}
		exit(runProfile(*prof, *machine, *traceOut, *chromeOut, *ringCap, *steps, ctx.Done()))
	}
	if fs.NArg() != 1 {
		usage()
		exit(2)
	}
	experiments.SetJobs(*jobs)

	command := fs.Arg(0)
	var tables []experiments.Table
	switch command {
	case "fig2":
		tables, err = one(experiments.Fig2())
	case "hierarchy":
		tables, err = one(experiments.Hierarchy(experiments.HierarchyProbePrograms(), 12))
	case "thm25":
		tables, err = experiments.Thm25()
	case "contracts":
		tables, err = experiments.Contracts()
	case "costmodels":
		tables, err = experiments.CostModels()
	case "thm26":
		tables, err = one(experiments.Thm26(nil))
	case "findleftmost":
		tables, err = one(experiments.FindLeftmost(nil))
	case "gcfactor":
		tables, err = one(experiments.GCFactor(400, nil))
	case "mta":
		tables, err = one(experiments.MTAExperiment(nil))
	case "denot":
		tables, err = one(experiments.DenotationalAgreement(15))
	case "algol":
		tables, err = one(experiments.AlgolSubset())
	case "cps":
		tables, err = one(experiments.CPSExperiment())
	case "secd":
		tables, err = one(experiments.SECDExperiment(nil))
	case "controlspace":
		tables, err = one(experiments.ControlSpaceExperiment())
	case "ablation":
		tables, err = one(experiments.ReturnEnvAblation())
	case "corollary20":
		tables, err = one(experiments.Corollary20(corpusPrograms()))
	case "all":
		tables, err = all()
	default:
		usage()
		exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spacelab:", err)
		exit(1)
	}
	failed := false
	for _, t := range tables {
		// A failed claim or a run that never produced an answer (stuck, or
		// out of steps) both fail the invocation.
		if !t.Ok() || !t.Complete() {
			failed = true
		}
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, command, tables, !failed); err != nil {
			fmt.Fprintln(os.Stderr, "spacelab:", err)
			exit(1)
		}
	} else {
		for _, t := range tables {
			fmt.Println(t.Render())
		}
	}
	if failed {
		exit(1)
	}
	exit(0)
}

// jsonTable mirrors experiments.Table for machine-readable output; Ok and
// Complete are materialized so trend trackers need not re-derive them.
type jsonTable struct {
	Title      string           `json:"title"`
	Header     []string         `json:"header,omitempty"`
	Rows       [][]string       `json:"rows"`
	Notes      []string         `json:"notes,omitempty"`
	Violations []string         `json:"violations,omitempty"`
	Incomplete []string         `json:"incomplete,omitempty"`
	Metrics    map[string]int64 `json:"metrics,omitempty"`
	Ok         bool             `json:"ok"`
	Complete   bool             `json:"complete"`
}

type jsonReport struct {
	Command string      `json:"command"`
	Jobs    int         `json:"jobs"`
	Ok      bool        `json:"ok"`
	Tables  []jsonTable `json:"tables"`
}

func writeJSON(w *os.File, command string, tables []experiments.Table, ok bool) error {
	report := jsonReport{
		Command: command,
		Jobs:    experiments.Jobs(),
		Ok:      ok,
		Tables:  make([]jsonTable, len(tables)),
	}
	for i, t := range tables {
		jt := jsonTable{
			Title: t.Title, Header: t.Header, Rows: t.Rows,
			Notes: t.Notes, Violations: t.Violations,
			Incomplete: t.Incomplete, Ok: t.Ok(), Complete: t.Complete(),
		}
		if t.Metrics != nil {
			jt.Metrics = t.Metrics.Snapshot()
		}
		report.Tables[i] = jt
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

func one(t experiments.Table, err error) ([]experiments.Table, error) {
	return []experiments.Table{t}, err
}

func all() ([]experiments.Table, error) {
	// Every experiment is independent and deterministic, so they run
	// concurrently (their measurement grids share the -jobs worker pool);
	// results are collected in a fixed presentation order. The
	// return-environment ablation flips a process-wide switch, so it runs by
	// itself afterwards.
	jobs := []func() (experiments.Table, error){
		experiments.Fig2,
		func() (experiments.Table, error) {
			return experiments.Hierarchy(experiments.HierarchyProbePrograms(), 12)
		},
		func() (experiments.Table, error) { return experiments.Thm26(nil) },
		func() (experiments.Table, error) { return experiments.FindLeftmost(nil) },
		func() (experiments.Table, error) { return experiments.GCFactor(400, nil) },
		func() (experiments.Table, error) { return experiments.MTAExperiment(nil) },
		func() (experiments.Table, error) { return experiments.DenotationalAgreement(15) },
		experiments.AlgolSubset,
		experiments.CPSExperiment,
		func() (experiments.Table, error) { return experiments.SECDExperiment(nil) },
		experiments.ControlSpaceExperiment,
		func() (experiments.Table, error) { return experiments.Corollary20(corpusPrograms()) },
	}
	type slot struct {
		table experiments.Table
		err   error
	}
	results := make([]slot, len(jobs))
	var thm25Tables, contractTables, costModelTables []experiments.Table
	var thm25Err, contractErr, costModelErr error
	var wg sync.WaitGroup
	wg.Add(len(jobs) + 3)
	go func() {
		defer wg.Done()
		thm25Tables, thm25Err = experiments.Thm25()
	}()
	go func() {
		defer wg.Done()
		contractTables, contractErr = experiments.Contracts()
	}()
	go func() {
		defer wg.Done()
		costModelTables, costModelErr = experiments.CostModels()
	}()
	for i, job := range jobs {
		go func(i int, job func() (experiments.Table, error)) {
			defer wg.Done()
			results[i].table, results[i].err = job()
		}(i, job)
	}
	wg.Wait()

	var out []experiments.Table
	collect := func(i int) error {
		if results[i].err != nil {
			return results[i].err
		}
		out = append(out, results[i].table)
		return nil
	}
	// Presentation order: fig2, hierarchy, thm25 (4 tables), contracts (2
	// tables), costmodels (2 tables), thm26, ...
	for _, step := range []int{0, 1} {
		if err := collect(step); err != nil {
			return out, err
		}
	}
	if thm25Err != nil {
		return out, thm25Err
	}
	out = append(out, thm25Tables...)
	if contractErr != nil {
		return out, contractErr
	}
	out = append(out, contractTables...)
	if costModelErr != nil {
		return out, costModelErr
	}
	out = append(out, costModelTables...)
	for _, step := range []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11} {
		if err := collect(step); err != nil {
			return out, err
		}
	}
	ablation, err := experiments.ReturnEnvAblation()
	if err != nil {
		return out, err
	}
	out = append(out, ablation)
	return out, nil
}

func corpusPrograms() map[string]string {
	m := map[string]string{}
	for _, p := range corpus.All() {
		m[p.Name] = p.Source
	}
	return m
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: spacelab [-jobs N] [-json] <experiment>
       spacelab -explain-peak <program> [-machine M] [-steps N]
       spacelab -profile <program> [-machine M] [-trace f.jsonl] [-chrome f.json] [-ring N] [-steps N]
experiments: fig2|hierarchy|thm25|contracts|costmodels|thm26|findleftmost|gcfactor|mta|denot|algol|cps|secd|controlspace|ablation|corollary20|all
<program> is a Scheme source file or a corpus program name.
flags:
  -jobs N          bound the number of measurement runs in flight (default GOMAXPROCS)
  -cost-model M    price experiments under cost model M (word|fixnum|log) instead of their defaults
  -json            emit tables as JSON for trend tracking
  -explain-peak P  attribute the flat-space peak of P under every machine (or -machine M)
  -profile P       run P once with the event stream attached and print its metrics
  -machine M       one of tail|gc|stack|evlis|free|sfs|naive|spaceff (profile default: tail)
  -trace FILE      with -profile: write retained events as JSONL
  -chrome FILE     with -profile: write a Chrome trace_event file (Perfetto-loadable)
  -ring N          with -profile: ring-buffer capacity (default 65536; oldest events drop)
  -steps N         with -explain-peak/-profile: step bound (default 5000000)`)
}
