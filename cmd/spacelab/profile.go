package main

import (
	"fmt"
	"os"
	"sort"

	"tailspace/internal/core"
	"tailspace/internal/corpus"
	"tailspace/internal/obs"
	"tailspace/internal/space"
)

// loadProgram resolves a program argument: a path to a Scheme source file, or
// the name of a corpus program (as listed by tailscan).
func loadProgram(arg string) (name, src string, err error) {
	if b, ferr := os.ReadFile(arg); ferr == nil {
		return arg, string(b), nil
	}
	for _, p := range corpus.All() {
		if p.Name == arg {
			return p.Name, p.Source, nil
		}
	}
	return "", "", fmt.Errorf("program %q is neither a readable file nor a corpus program", arg)
}

// selectVariants resolves -machine: empty means every reference
// implementation.
func selectVariants(machine string) ([]core.Variant, error) {
	if machine == "" {
		return core.Variants, nil
	}
	v, ok := core.ByName(machine)
	if !ok {
		return nil, fmt.Errorf("unknown machine %q (want tail|gc|stack|evlis|free|sfs|naive|spaceff)", machine)
	}
	return []core.Variant{v}, nil
}

// explainPeak runs the program with peak attribution under each selected
// machine and renders the report: which source expression, under which rule,
// realized the flat-space peak. Returns the process exit code (non-zero when
// any run ends stuck or out of steps).
func explainPeak(arg, machine string, maxSteps int, cancel <-chan struct{}) int {
	name, src, err := loadProgram(arg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spacelab:", err)
		return 1
	}
	variants, err := selectVariants(machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spacelab:", err)
		return 1
	}
	exit := 0
	for _, v := range variants {
		res, err := core.RunProgram(src, core.Options{
			Variant: v, Measure: true, FlatOnly: true, GCEvery: 1,
			MaxSteps: maxSteps, CostModel: space.Fixnum, AttributePeak: true,
			Cancel: cancel,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "spacelab: %s [%s]: %v\n", name, v, err)
			return 1
		}
		fmt.Printf("%s [%s]\n", name, v)
		if res.Err != nil {
			// The attribution still covers the peak reached before the run
			// died, so render it before reporting the failure.
			fmt.Printf("  run ended without an answer: %v\n", res.Err)
			exit = 1
		} else {
			fmt.Printf("  answer %s in %d steps\n", res.Answer, res.Steps)
		}
		if res.Peak != nil {
			fmt.Println(indent(res.Peak.Render(), "  "))
		}
	}
	return exit
}

// runProfile runs one program under one machine with the event stream
// attached, prints the run's metrics, and optionally exports the retained
// events as JSONL and/or a Chrome trace. Returns the process exit code.
func runProfile(arg, machine, traceFile, chromeFile string, ringCap, maxSteps int, cancel <-chan struct{}) int {
	name, src, err := loadProgram(arg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spacelab:", err)
		return 1
	}
	if machine == "" {
		machine = "tail"
	}
	v, ok := core.ByName(machine)
	if !ok {
		fmt.Fprintf(os.Stderr, "spacelab: unknown machine %q\n", machine)
		return 1
	}
	ring := obs.NewRing(ringCap)
	res, err := core.RunProgram(src, core.Options{
		Variant: v, Measure: true, GCEvery: 1, MaxSteps: maxSteps,
		CostModel: space.Fixnum, Events: ring, AttributePeak: true,
		Cancel: cancel,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "spacelab: %s [%s]: %v\n", name, v, err)
		return 1
	}

	exit := 0
	fmt.Printf("%s [%s]\n", name, v)
	if res.Err != nil {
		fmt.Printf("  run ended without an answer: %v\n", res.Err)
		exit = 1
	} else {
		fmt.Printf("  answer %s in %d steps\n", res.Answer, res.Steps)
	}
	if res.Metrics != nil {
		names := res.Metrics.Names()
		sort.Strings(names)
		snap := res.Metrics.Snapshot()
		for _, n := range names {
			fmt.Printf("  %-24s %d\n", n, snap[n])
		}
	}
	fmt.Printf("  events retained %d of %d (ring capacity %d)\n",
		ring.Len(), ring.Total(), ring.Capacity())
	if res.Peak != nil {
		fmt.Println(indent(res.Peak.Render(), "  "))
	}

	if traceFile != "" {
		if err := exportTo(traceFile, func(f *os.File) error {
			return obs.WriteJSONL(f, ring.Events())
		}); err != nil {
			fmt.Fprintln(os.Stderr, "spacelab:", err)
			return 1
		}
		fmt.Printf("  wrote %d events to %s\n", ring.Len(), traceFile)
	}
	if chromeFile != "" {
		label := fmt.Sprintf("%s [%s]", name, v)
		if err := exportTo(chromeFile, func(f *os.File) error {
			return obs.WriteChromeTrace(f, label, ring.Events())
		}); err != nil {
			fmt.Fprintln(os.Stderr, "spacelab:", err)
			return 1
		}
		fmt.Printf("  wrote Chrome trace to %s (load in Perfetto or chrome://tracing)\n", chromeFile)
	}
	return exit
}

func exportTo(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func indent(s, prefix string) string {
	out := prefix
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += prefix
		}
	}
	// Trim the trailing prefix a final newline leaves behind.
	if len(out) >= len(prefix) && out[len(out)-len(prefix):] == prefix {
		out = out[:len(out)-len(prefix)]
	}
	return out
}
