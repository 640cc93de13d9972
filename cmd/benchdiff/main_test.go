package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReport writes a benchjson report holding one result per name, each
// taking ns nanoseconds per op, and returns its path.
func writeReport(t *testing.T, ns float64, names ...string) string {
	t.Helper()
	rep := report{CPU: "test"}
	for _, n := range names {
		rep.Results = append(rep.Results, result{Name: n, Iterations: 1, NsPerOp: ns})
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeSamples writes a benchjson report holding one result per sample,
// all under one name, as several suites appended to one report do, and
// returns its path.
func writeSamples(t *testing.T, name string, ns ...float64) string {
	t.Helper()
	rep := report{CPU: "test"}
	for _, x := range ns {
		rep.Results = append(rep.Results, result{Name: name, Iterations: 1, NsPerOp: x})
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runDiff(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errOut strings.Builder
	status := run(args, &out, &errOut)
	return status, out.String() + errOut.String()
}

func TestBaseName(t *testing.T) {
	for name, want := range map[string]string{
		"BenchmarkFig6Hierarchy-2":          "BenchmarkFig6Hierarchy",
		"BenchmarkMachine/stack-16":         "BenchmarkMachine/stack",
		"BenchmarkFig6Hierarchy":            "BenchmarkFig6Hierarchy",
		"BenchmarkEventStamping/no-trace":   "BenchmarkEventStamping/no-trace",
		"BenchmarkEventStamping/no-trace-2": "BenchmarkEventStamping/no-trace",
		"BenchmarkOdd-":                     "BenchmarkOdd-",
	} {
		if got := baseName(name); got != want {
			t.Errorf("baseName(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestMatchesAcrossGOMAXPROCSSuffix compares a report recorded without the
// -N suffix against one recorded on two CPUs: every benchmark must meet its
// twin instead of being listed as removed and added.
func TestMatchesAcrossGOMAXPROCSSuffix(t *testing.T) {
	old := writeReport(t, 100, "BenchmarkA", "BenchmarkB/sub")
	new_ := writeReport(t, 110, "BenchmarkA-2", "BenchmarkB/sub-2")
	status, out := runDiff(t, "-fail-over", "35", old, new_)
	if status != 0 {
		t.Fatalf("status %d, output:\n%s", status, out)
	}
	if strings.Contains(out, "added") || strings.Contains(out, "removed") {
		t.Fatalf("suffixed names were not matched:\n%s", out)
	}
	if !strings.Contains(out, "+10.0%") {
		t.Fatalf("missing the matched delta:\n%s", out)
	}
}

func TestDisjointReportsFail(t *testing.T) {
	old := writeReport(t, 100, "BenchmarkA")
	new_ := writeReport(t, 100, "BenchmarkB-2")
	status, out := runDiff(t, old, new_)
	if status != 1 || !strings.Contains(out, "share no benchmark") {
		t.Fatalf("status %d, output:\n%s", status, out)
	}
}

func TestFailOverGatesMatchedSlowdown(t *testing.T) {
	old := writeReport(t, 100, "BenchmarkA")
	new_ := writeReport(t, 200, "BenchmarkA-2")
	if status, out := runDiff(t, "-fail-over", "35", old, new_); status != 1 || !strings.Contains(out, "FAIL: 1 benchmark") {
		t.Fatalf("status %d, output:\n%s", status, out)
	}
	if status, out := runDiff(t, old, new_); status != 0 {
		t.Fatalf("report-only run: status %d, output:\n%s", status, out)
	}
}

// TestRepeatedSamplesCompareMedians reads each side of a repeated benchmark
// as the median of its samples: an outlier sample, first or last, neither
// trips the gate nor masks a slowdown most samples show. Keeping only the
// last sample of each name would get both cases wrong.
func TestRepeatedSamplesCompareMedians(t *testing.T) {
	old := writeSamples(t, "BenchmarkA", 100, 1000, 98)
	noisy := writeSamples(t, "BenchmarkA-2", 110, 105, 300)
	status, out := runDiff(t, "-fail-over", "35", old, noisy)
	if status != 0 || !strings.Contains(out, "+10.0%") || !strings.Contains(out, "3/3") {
		t.Fatalf("medians 100 -> 110 must pass: status %d, output:\n%s", status, out)
	}
	slower := writeSamples(t, "BenchmarkA-2", 200, 210, 100)
	status, out = runDiff(t, "-fail-over", "35", old, slower)
	if status != 1 || !strings.Contains(out, "+100.0%") || !strings.Contains(out, "FAIL: 1 benchmark") {
		t.Fatalf("medians 100 -> 200 must fail: status %d, output:\n%s", status, out)
	}
}

// TestCommittedReportsShareBenchmarks diffs the committed baseline against
// every dated report in the repository root: each pair must have
// benchmarks in common, or the CI gate built on them compares nothing.
func TestCommittedReportsShareBenchmarks(t *testing.T) {
	dated, err := filepath.Glob(filepath.Join("..", "..", "BENCH_2*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dated) == 0 {
		t.Skip("no dated BENCH report")
	}
	baseline := filepath.Join("..", "..", "BENCH_baseline.json")
	for _, path := range dated {
		if status, out := runDiff(t, baseline, path); status != 0 {
			t.Errorf("%s: status %d, output:\n%s", path, status, out)
		}
	}
}
