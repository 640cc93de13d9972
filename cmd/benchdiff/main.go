// Command benchdiff compares two cmd/benchjson reports and prints a
// per-benchmark delta table:
//
//	go run ./cmd/benchdiff BENCH_baseline.json BENCH_2026-08-05.json
//
// For every benchmark present in either file it shows old and new ns/op,
// the relative change, and the allocs/op movement. Benchmarks present in
// only one file are listed as added/removed rather than dropped silently.
// Names are matched without the -N GOMAXPROCS suffix go test appends on a
// multi-CPU machine, so BenchmarkFig6Hierarchy-2 meets BenchmarkFig6Hierarchy.
//
// By default the exit status is 0 whenever both files parse and share at
// least one benchmark: benchdiff reports. Two reports with no benchmark in
// common compare nothing, and exit with status 1. With -fail-over P it also
// gates: any benchmark present in both reports whose ns/op grew by more
// than P percent fails the run with exit status 1. Added and removed
// benchmarks never trip the gate — they have nothing to be compared
// against. Pick P with the noise floor of the machine in mind; shared CI
// runners need a generous threshold (~35%) to gate on real regressions
// without flaking on scheduler jitter.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"tailspace/internal/version"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
}

type report struct {
	Goos    string   `json:"goos"`
	Goarch  string   `json:"goarch"`
	CPU     string   `json:"cpu"`
	Results []result `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is benchdiff with its arguments and output streams passed in; it
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	failOver := fs.Float64("fail-over", 0, "exit 1 when any benchmark in both reports slows down by more than this percent (0 disables the gate)")
	showVersion := fs.Bool("version", false, "print version and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchdiff [-fail-over PCT] <old.json> <new.json>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		version.Print(stdout, "benchdiff")
		return 0
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	old, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}
	new_, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}
	if old.CPU != new_.CPU && old.CPU != "" && new_.CPU != "" {
		fmt.Fprintf(stdout, "note: cpu differs (old %q, new %q); ns/op deltas are not like-for-like\n\n", old.CPU, new_.CPU)
	}

	oldBy := byName(old.Results)
	newBy := byName(new_.Results)
	names := make([]string, 0, len(oldBy)+len(newBy))
	shared := 0
	for n := range oldBy {
		names = append(names, n)
	}
	for n := range newBy {
		if _, ok := oldBy[n]; ok {
			shared++
		} else {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	var regressions []string
	fmt.Fprintf(stdout, "%-50s %14s %14s %9s %16s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op")
	for _, n := range names {
		o, hasOld := oldBy[n]
		nw, hasNew := newBy[n]
		switch {
		case !hasNew:
			fmt.Fprintf(stdout, "%-50s %14s %14s %9s %16s\n", n, fmtNs(o.NsPerOp), "-", "removed", "")
		case !hasOld:
			fmt.Fprintf(stdout, "%-50s %14s %14s %9s %16s\n", n, "-", fmtNs(nw.NsPerOp), "added", fmt.Sprintf("%d", nw.AllocsPerOp))
		default:
			delta := "~"
			if o.NsPerOp > 0 {
				pct := (nw.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
				delta = fmt.Sprintf("%+.1f%%", pct)
				if *failOver > 0 && pct > *failOver {
					regressions = append(regressions, fmt.Sprintf("%s: %s -> %s (%s)", n, fmtNs(o.NsPerOp), fmtNs(nw.NsPerOp), delta))
				}
			}
			allocs := fmt.Sprintf("%d -> %d", o.AllocsPerOp, nw.AllocsPerOp)
			if o.AllocsPerOp == nw.AllocsPerOp {
				allocs = fmt.Sprintf("%d", nw.AllocsPerOp)
			}
			fmt.Fprintf(stdout, "%-50s %14s %14s %9s %16s\n", n, fmtNs(o.NsPerOp), fmtNs(nw.NsPerOp), delta, allocs)
		}
	}
	if shared == 0 {
		fmt.Fprintf(stderr, "benchdiff: %s and %s share no benchmark; nothing was compared\n", fs.Arg(0), fs.Arg(1))
		return 1
	}
	if len(regressions) > 0 {
		fmt.Fprintf(stdout, "\nFAIL: %d benchmark(s) regressed beyond %.0f%%:\n", len(regressions), *failOver)
		for _, r := range regressions {
			fmt.Fprintf(stdout, "  %s\n", r)
		}
		return 1
	}
	return 0
}

func load(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return rep, fmt.Errorf("%s: no benchmark results", path)
	}
	return rep, nil
}

// byName keys results by benchmark name without the GOMAXPROCS suffix.
func byName(rs []result) map[string]result {
	m := make(map[string]result, len(rs))
	for _, r := range rs {
		m[baseName(r.Name)] = r
	}
	return m
}

// baseName drops the -N that go test appends to every benchmark name when
// GOMAXPROCS is N > 1. A name of its own ending in -digits would lose that
// part too; no benchmark in this repository is named so.
func baseName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 || strings.Trim(name[i+1:], "0123456789") != "" {
		return name
	}
	return name[:i]
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
