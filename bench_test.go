package tailspace

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (run `go test -bench=. -benchmem`). Each experiment
// bench executes the full reproduction and reports its key series through
// b.ReportMetric, so `go test -bench` regenerates the numbers recorded in
// EXPERIMENTS.md; the machine benches additionally report interpreter
// throughput for each reference implementation.

import (
	"fmt"
	"math/big"
	"testing"

	"tailspace/internal/core"
	"tailspace/internal/corpus"
	"tailspace/internal/env"
	"tailspace/internal/experiments"
	"tailspace/internal/obs"
	"tailspace/internal/space"
	"tailspace/internal/value"
)

// reportTable surfaces an experiment's verdict and exposes violations.
func reportTable(b *testing.B, t experiments.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if !t.Ok() {
		b.Fatalf("claims violated:\n%s", t.Render())
	}
}

// BenchmarkFig2TailCallFrequency regenerates Figure 2: the static frequency
// of tail calls over the corpus. Metrics: the total tail-call and self-call
// percentages.
func BenchmarkFig2TailCallFrequency(b *testing.B) {
	var table experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.Fig2()
	}
	reportTable(b, table, err)
	total := table.Rows[len(table.Rows)-1]
	b.ReportMetric(atof(total[3]), "tail%")
	b.ReportMetric(atof(total[4]), "self%")
}

// BenchmarkFig6Hierarchy regenerates the Figure 6 / Theorem 24 hierarchy
// check over the probe programs.
func BenchmarkFig6Hierarchy(b *testing.B) {
	var table experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.Hierarchy(experiments.HierarchyProbePrograms(), 12)
	}
	reportTable(b, table, err)
}

// BenchmarkThm25StackVsGC regenerates Theorem 25's first separation:
// O(S_stack) ⊄ O(S_gc).
func BenchmarkThm25StackVsGC(b *testing.B) {
	benchSingleSeparation(b, "vector-frames")
}

// BenchmarkThm25GCVsTail regenerates the headline separation: the iterative
// loop is linear under Z_gc and constant under Z_tail.
func BenchmarkThm25GCVsTail(b *testing.B) {
	benchSingleSeparation(b, "countdown")
}

// BenchmarkThm25TailVsEvlis regenerates the evlis separation (third
// program).
func BenchmarkThm25TailVsEvlis(b *testing.B) {
	benchSingleSeparation(b, "thunk-return")
}

// BenchmarkThm25TailVsFree regenerates the free-closure separation (fourth
// program).
func BenchmarkThm25TailVsFree(b *testing.B) {
	benchSingleSeparation(b, "closure-capture")
}

func benchSingleSeparation(b *testing.B, name string) {
	var prog experiments.SeparationProgram
	found := false
	for _, p := range experiments.Thm25Programs() {
		if p.Name == name {
			prog = p
			found = true
		}
	}
	if !found {
		b.Fatalf("unknown separation program %s", name)
	}
	var table experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.RunSeparation(prog)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !table.Ok() {
		b.Fatalf("claims violated:\n%s", table.Render())
	}
	for _, row := range table.Rows {
		b.ReportMetric(expOf(row[len(row)-3]), row[0]+"_exp")
	}
}

// BenchmarkThm26LinkedVsFlat regenerates Theorem 26: O(S_sfs) ⊄ O(U_tail) on
// the nested-let thunk family.
func BenchmarkThm26LinkedVsFlat(b *testing.B) {
	var table experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.Thm26(nil)
	}
	reportTable(b, table, err)
	for _, row := range table.Rows {
		b.ReportMetric(expOf(row[len(row)-3]), row[0]+"_exp")
	}
}

// BenchmarkFindLeftmost regenerates the Section 4 space profile.
func BenchmarkFindLeftmost(b *testing.B) {
	var table experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.FindLeftmost(nil)
	}
	reportTable(b, table, err)
}

// BenchmarkGCFactor regenerates the Section 12 periodic-collection factor.
func BenchmarkGCFactor(b *testing.B) {
	var table experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.GCFactor(400, nil)
	}
	reportTable(b, table, err)
	last := table.Rows[len(table.Rows)-1]
	b.ReportMetric(atof(last[len(last)-1]), "R")
}

// BenchmarkSection14MTA regenerates the Cheney-on-the-MTA table: a machine
// that pushes a frame per call yet is properly tail recursive by the
// space-class definition.
func BenchmarkSection14MTA(b *testing.B) {
	var table experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.MTAExperiment(nil)
	}
	reportTable(b, table, err)
}

// BenchmarkSection16Denotational regenerates the denotational-agreement
// check across all seven machines.
func BenchmarkSection16Denotational(b *testing.B) {
	var table experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.DenotationalAgreement(10)
	}
	reportTable(b, table, err)
}

// BenchmarkCPSConversion regenerates the [Ste78] CPS experiment: shape,
// answers, and space preservation of continuation-passing-style conversion.
func BenchmarkCPSConversion(b *testing.B) {
	var table experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.CPSExperiment()
	}
	reportTable(b, table, err)
}

// BenchmarkSECDMachines regenerates the §15 [Ram97] comparison of the
// classic and tail recursive SECD machines.
func BenchmarkSECDMachines(b *testing.B) {
	var table experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.SECDExperiment(nil)
	}
	reportTable(b, table, err)
}

// BenchmarkControlSpaceAnalysis regenerates the §16 static-analysis
// validation table.
func BenchmarkControlSpaceAnalysis(b *testing.B) {
	var table experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.ControlSpaceExperiment()
	}
	reportTable(b, table, err)
}

// BenchmarkAlgolSubset regenerates the Section 5/8 strict-deletion census.
func BenchmarkAlgolSubset(b *testing.B) {
	var table experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.AlgolSubset()
	}
	reportTable(b, table, err)
}

// BenchmarkCorollary20Differential runs the answer-agreement check over the
// corpus under every machine and order.
func BenchmarkCorollary20Differential(b *testing.B) {
	progs := map[string]string{}
	for _, p := range corpus.All() {
		progs[p.Name] = p.Source
	}
	var table experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.Corollary20(progs)
	}
	reportTable(b, table, err)
}

// BenchmarkMachine measures raw interpreter throughput (transitions per
// second) for each reference implementation on the doubly recursive fib.
func BenchmarkMachine(b *testing.B) {
	const fib = "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 14)"
	for _, v := range core.Variants {
		b.Run(v.Name, func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				res, err := core.RunProgram(fib, core.Options{Variant: v})
				if err != nil || res.Err != nil {
					b.Fatalf("%v %v", err, res.Err)
				}
				steps = res.Steps
			}
			b.ReportMetric(float64(steps), "steps/run")
		})
	}
}

// BenchmarkEventStamping guards the cost of trace-ID stamping
// (core.Options.TraceID). The nil-events sub-bench runs with a TraceID but
// no sink: StampTrace must leave the nil sink untouched, so allocs/op
// stays flat (run setup only — nothing per step; compare against baseline
// in make bench-diff). The ring sub-bench pays the stamped event stream
// for scale.
func BenchmarkEventStamping(b *testing.B) {
	const countdown = "(define (f n) (if (zero? n) 0 (f (- n 1))))"
	e, err := core.ApplicationExpr(countdown, "(quote 2000)")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, opts core.Options) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := core.NewRunner(opts).Run(e)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	b.Run("no-trace", func(b *testing.B) {
		run(b, core.Options{})
	})
	b.Run("nil-events", func(b *testing.B) {
		run(b, core.Options{TraceID: "bench-trace"})
	})
	b.Run("stamped-ring", func(b *testing.B) {
		run(b, core.Options{TraceID: "bench-trace", Events: obs.NewRing(4096)})
	})
}

// BenchmarkMeterFullVsDelta compares the two space.Meter implementations on
// a long-running loop whose live store is large: a global pins a 4000-pair
// list (built tail-recursively, so the build phase is shallow too) while a
// constant-space countdown runs, so the FullMeter oracle walks
// every live cell at every transition while the DeltaMeter only absorbs the
// O(1) cells each step touches. Collection is periodic (the §12 mode) so the
// collector's own reachability walk — which both meters pay alike —
// amortizes away and the meters' costs dominate. The "delta" sub-bench must
// run at least 3x faster than "full" (the ratio widens with the list).
// "delta+linked" adds the Figure 8 account on the same run. There is no
// "full+linked": the oracle's linked walk of the 4000-cell store on every
// transition costs more than its flat walk, and the flat-only "full" run
// already takes seconds.
func BenchmarkMeterFullVsDelta(b *testing.B) {
	const program = `
(define (build k acc) (if (zero? k) acc (build (- k 1) (cons k acc))))
(define big (build 4000 0))
(define (f m) (if (zero? m) 0 (f (- m 1))))`
	run := func(b *testing.B, flatOnly bool, meter func() space.Meter) {
		steps := 0
		for i := 0; i < b.N; i++ {
			res, err := core.RunApplication(program, "(quote 2000)", core.Options{
				Variant: core.Tail, Measure: true, FlatOnly: flatOnly,
				GCEvery: 50, CostModel: space.Fixnum, Meter: meter(),
			})
			if err != nil || res.Err != nil {
				b.Fatalf("%v %v", err, res.Err)
			}
			steps = res.Steps
		}
		b.ReportMetric(float64(steps), "steps/run")
	}
	b.Run("full", func(b *testing.B) {
		run(b, true, func() space.Meter { return space.NewFullMeter(space.Fixnum) })
	})
	b.Run("delta", func(b *testing.B) {
		run(b, true, func() space.Meter { return space.NewDeltaMeter(space.Fixnum) })
	})
	b.Run("delta+linked", func(b *testing.B) {
		run(b, false, func() space.Meter { return space.NewDeltaMeter(space.Fixnum) })
	})
}

// BenchmarkMeasuredRun quantifies the cost of the space-accounting harness
// itself: the same run with and without Figure 7/8 metering.
func BenchmarkMeasuredRun(b *testing.B) {
	const loop = "(define (f n) (if (zero? n) 0 (f (- n 1))))"
	cases := []struct {
		name string
		opts core.Options
	}{
		{"plain", core.Options{Variant: core.Tail}},
		{"flat", core.Options{Variant: core.Tail, Measure: true, FlatOnly: true, CostModel: space.Fixnum}},
		{"flat+linked", core.Options{Variant: core.Tail, Measure: true, CostModel: space.Fixnum}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.RunApplication(loop, "(quote 400)", c.opts)
				if err != nil || res.Err != nil {
					b.Fatalf("%v %v", err, res.Err)
				}
			}
		})
	}
}

// BenchmarkDeepMeteredRecursion measures a deep non-tail recursion with
// both meters and the GC rule after every transition (Definition 21) on
// Z_tail and Z_gc: 2,000 deep under the machine's name, and 8,000 deep
// under name-8000. Every frame's saved environment ends in ρ0, and the
// inner f's parameter shadows the outer n, so each saved chain is shadowed.
// The counting collector makes a collection cost what changed, so the two
// depths should differ by about 4x; a collector that traced the live
// configuration made it 16x. The -every7 cases apply the GC rule every 7
// transitions, so a return pops several frames between two collections;
// they should cost no more than the same depth at every transition, as the
// collector counts κ's frames rather than holding them by position. The
// callcc-collector cases run a recursion that captures an escape at every
// level with the GC rule after every transition and no meter: the
// collector counts each escape's frames once, not frame by frame.
func BenchmarkDeepMeteredRecursion(b *testing.B) {
	const prog = "(lambda (n) (define (f n) (if (= n 0) 0 (+ 1 (f (- n 1))))) (f n))"
	const callcc = "(lambda (n) (define (f n) (if (= n 0) 0 (+ 1 (call/cc (lambda (k) (f (- n 1))))))) (f n))"
	run := func(name, prog string, n int, opts core.Options) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.RunApplication(prog, fmt.Sprintf("(quote %d)", n), opts)
				if err != nil || res.Err != nil || res.Answer != fmt.Sprint(n) {
					b.Fatalf("%v %v %q", err, res.Err, res.Answer)
				}
			}
		})
	}
	for _, n := range []int{2000, 8000} {
		suffix := ""
		if n != 2000 {
			suffix = fmt.Sprintf("-%d", n)
		}
		for _, v := range []core.Variant{core.Tail, core.GC} {
			run(v.Name+suffix, prog, n, core.Options{Variant: v, Measure: true})
		}
		for _, v := range []core.Variant{core.Tail, core.GC} {
			run(v.Name+suffix+"-every7", prog, n, core.Options{Variant: v, Measure: true, GCEvery: 7})
		}
		run("callcc-collector"+suffix, callcc, n, core.Options{Variant: core.Tail, GCEvery: 1})
	}
}

// BenchmarkMeteredThunkReturn measures Theorem 25's thunk-return program at
// n = 128 on Z_tail under the fixnum model, metered, with the GC rule after
// every transition: the rung the separation experiments could not reach
// while every collection traced the whole live configuration.
func BenchmarkMeteredThunkReturn(b *testing.B) {
	opts := core.Options{Variant: core.Tail, Measure: true, CostModel: space.Fixnum}
	for i := 0; i < b.N; i++ {
		res, err := core.RunApplication(experiments.ThunkReturn, "(quote 128)", opts)
		if err != nil || res.Err != nil {
			b.Fatalf("%v %v", err, res.Err)
		}
	}
}

func atof(s string) float64 {
	var f float64
	fmt.Sscanf(s, "%f", &f)
	return f
}

func expOf(s string) float64 {
	var f float64
	fmt.Sscanf(s, "n^%f", &f)
	return f
}

// BenchmarkCollect times the Figure 5 collection rule on the arena store,
// both ways. Collect traces from the registers: it is the oracle the tests
// check the runner's collector against, and its trace is also the first
// collection of a run and the fallback of the cycle check. Reclaim, the
// runner's collector, works from reference counts. "steady" collects an all-reachable 2000-cell pair
// chain, the hot case of a space-efficient computation, where most
// collections free nothing; both ways must run with 0 allocs/op. "sweep"
// allocates 100 garbage cells per collection, so freeing is timed too.
func BenchmarkCollect(b *testing.B) {
	// build returns the store and a value register holding the chain's head.
	build := func(n int) (*value.Store, value.Value) {
		st := value.NewStore()
		prev := st.Alloc(value.Num{Int: big.NewInt(0)})
		for i := 1; i < n; i++ {
			prev = st.Alloc(value.Pair{CarLoc: prev, CdrLoc: prev})
		}
		return st, value.Vector{ElemLocs: []env.Location{prev}}
	}
	b.Run("steady", func(b *testing.B) {
		st, root := build(2000)
		st.Collect(root, env.Empty(), nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st.Collect(root, env.Empty(), nil) != 0 {
				b.Fatal("steady-state collect freed cells")
			}
		}
	})
	b.Run("sweep", func(b *testing.B) {
		st, root := build(2000)
		st.Collect(root, env.Empty(), nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 100; j++ {
				st.Alloc(value.Bool(true))
			}
			if st.Collect(root, env.Empty(), nil) != 100 {
				b.Fatal("sweep missed garbage")
			}
		}
	})
	b.Run("steady-counted", func(b *testing.B) {
		st, root := build(2000)
		st.Reclaim(root, env.Empty(), nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st.Reclaim(root, env.Empty(), nil) != 0 {
				b.Fatal("steady-state reclaim freed cells")
			}
		}
	})
	b.Run("sweep-counted", func(b *testing.B) {
		st, root := build(2000)
		st.Reclaim(root, env.Empty(), nil)
		for j := 0; j < 100; j++ {
			st.Alloc(value.Bool(true))
		}
		st.Reclaim(root, env.Empty(), nil) // size the zero-count table
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 100; j++ {
				st.Alloc(value.Bool(true))
			}
			if st.Reclaim(root, env.Empty(), nil) != 100 {
				b.Fatal("sweep missed garbage")
			}
		}
	})
}

// BenchmarkExtendLookup exercises the environment hot path of applyProcedure:
// extend a lexically nested chain one rib at a time, then resolve every
// binding by its pre-interned symbol (integer compares).
func BenchmarkExtendLookup(b *testing.B) {
	names := []string{"f", "x", "k", "acc", "loop", "v", "i", "n"}
	syms := env.InternAll(names)
	locs := make([]env.Location, len(names))
	for i := range locs {
		locs[i] = env.Location(i)
	}
	b.Run("interned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := env.Empty()
			for depth := 0; depth < 8; depth++ {
				a, c := depth%len(syms), (depth+1)%len(syms)
				e = e.ExtendSyms(
					[]env.Symbol{syms[a], syms[c]},
					[]env.Location{locs[a], locs[c]},
				)
			}
			for _, s := range syms {
				e.LookupSym(s)
			}
		}
	})
}
