// Command schemer runs a Scheme program under any of the paper's reference
// implementations and reports its answer and space consumption.
//
// Usage:
//
//	schemer [flags] file.scm        # run a program file
//	schemer [flags] -e '(+ 1 2)'    # run an expression
//	schemer -i                      # read-eval-print loop
//
// Flags:
//
//	-variant tail|gc|stack|evlis|free|sfs|naive|spaceff|mta   reference implementation
//	-input EXPR     apply the program (a one-argument procedure) to EXPR
//	-measure        report S_X and U_X space peaks (Figures 7 and 8)
//	-cost-model word|fixnum|log   space cost model (fixnum charges numbers
//	                a constant instead of 1+log2|z|)
//	-order l2r|r2l|random   argument evaluation order (the permutation π)
//	-strict-stack   Z_stack deletes whole frames, sticking on danglers
//	-gc-every K     apply the GC rule every K steps (default: every step
//	                when measuring)
//	-max-steps N    step budget
//	-cps            CPS-convert the program before running it ([Ste78])
//	-profile FILE   write a step-by-step space CSV (step,flat,linked,heap,depth)
//	-trace          print per-run statistics
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"tailspace/internal/core"
	"tailspace/internal/cps"
	"tailspace/internal/obs"
	"tailspace/internal/sexpr"
	"tailspace/internal/space"
)

func main() {
	variant := flag.String("variant", "tail", "reference implementation: tail|gc|stack|evlis|free|sfs|naive|spaceff|mta")
	expr := flag.String("e", "", "program text (instead of a file)")
	input := flag.String("input", "", "apply the program to this input expression")
	measure := flag.Bool("measure", false, "measure Figure 7/8 space peaks")
	costModel := flag.String("cost-model", "", "space cost model: word|fixnum|log (default word)")
	orderFlag := flag.String("order", "l2r", "argument order: l2r|r2l|random")
	strictStack := flag.Bool("strict-stack", false, "Z_stack deletes whole frames (sticks on danglers)")
	gcEvery := flag.Int("gc-every", 0, "apply the GC rule every K steps")
	maxSteps := flag.Int("max-steps", 0, "step budget (default 5M)")
	trace := flag.Bool("trace", false, "print run statistics")
	profile := flag.String("profile", "", "write a step,flat,linked,heap,depth CSV space profile to this file")
	interactive := flag.Bool("i", false, "read-eval-print loop on stdin")
	cpsConvert := flag.Bool("cps", false, "CPS-convert the program before running it")
	flag.Parse()

	src := *expr
	if src == "" && !*interactive {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: schemer [flags] file.scm  (or -e EXPR, or -i)")
			os.Exit(2)
		}
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}

	v, ok := core.ByName(*variant)
	if !ok {
		fatal(fmt.Errorf("unknown variant %q", *variant))
	}
	order := core.LeftToRight
	switch *orderFlag {
	case "l2r":
	case "r2l":
		order = core.RightToLeft
	case "random":
		order = core.RandomOrder
	default:
		fatal(fmt.Errorf("unknown order %q", *orderFlag))
	}
	model, err := space.ModelByName(*costModel)
	if err != nil {
		fatal(err)
	}
	opts := core.Options{
		Variant:     v,
		Measure:     *measure,
		CostModel:   model,
		Order:       order,
		StackStrict: *strictStack,
		GCEvery:     *gcEvery,
		MaxSteps:    *maxSteps,
	}

	var prof *obs.ProfileSink
	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		opts.Measure = true
		fmt.Fprintln(f, "step,flat,linked,heap,depth")
		prof = &obs.ProfileSink{Row: func(e obs.Event) {
			fmt.Fprintf(f, "%d,%d,%d,%d,%d\n", e.Step, e.Flat, e.Linked, e.Heap, e.Depth)
		}}
		opts.Events = prof
	}

	if *interactive {
		repl(opts, *measure, prof)
		return
	}

	var res core.Result
	switch {
	case *cpsConvert && *input != "":
		fatal(fmt.Errorf("-cps and -input cannot be combined"))
	case *cpsConvert:
		converted, cerr := cps.ConvertSource(src)
		if cerr != nil {
			fatal(cerr)
		}
		res = core.NewRunner(opts).Run(converted)
	case *input != "":
		res, err = core.RunApplication(src, *input, opts)
	default:
		res, err = core.RunProgram(src, opts)
	}
	if err != nil {
		fatal(err)
	}
	prof.End()
	if res.Err != nil {
		fatal(res.Err)
	}

	fmt.Println(res.Answer)
	if prof != nil {
		fmt.Printf("space profile written to %s (%d samples)\n", *profile, res.Steps+1)
	}
	if *measure {
		fmt.Printf("space: S=%d words (flat, Fig 7)  U=%d words (linked, Fig 8)  |P|=%d\n",
			res.PeakFlat, res.PeakLinked, res.ProgramSize)
	}
	if *trace {
		fmt.Printf("steps=%d peak-heap=%d peak-cont-depth=%d collections=%d collected=%d\n",
			res.Steps, res.PeakHeap, res.PeakContDepth, res.Collections, res.Collected)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "schemer:", err)
	os.Exit(1)
}

// repl is a simple read-eval-print loop. Top-level definitions accumulate
// for the rest of the session; each expression is evaluated in a fresh store
// against the accumulated definitions (state set! at the top level does not
// persist across entries).
func repl(opts core.Options, measure bool, prof *obs.ProfileSink) {
	fmt.Printf("tailspace %s machine; ,q to quit\n", opts.Variant)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var defs []string
	var pending string
	prompt := func() {
		if pending == "" {
			fmt.Print("> ")
		} else {
			fmt.Print("  ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		if pending == "" && strings.TrimSpace(line) == ",q" {
			return
		}
		pending += line + "\n"
		data, err := sexpr.ReadAll(pending)
		if err != nil {
			if strings.Contains(err.Error(), "unterminated") {
				prompt() // keep accumulating a multi-line form
				continue
			}
			fmt.Println("parse error:", err)
			pending = ""
			prompt()
			continue
		}
		pending = ""
		for _, d := range data {
			if isDefine(d) {
				defs = append(defs, d.String())
				fmt.Println("; defined")
				continue
			}
			src := strings.Join(defs, "\n") + "\n" + d.String()
			res, err := core.RunProgram(src, opts)
			prof.End()
			switch {
			case err != nil:
				fmt.Println("error:", err)
			case res.Err != nil:
				fmt.Println("error:", res.Err)
			default:
				fmt.Println(res.Answer)
				if measure {
					fmt.Printf("; S=%d U=%d steps=%d\n", res.PeakFlat, res.PeakLinked, res.Steps)
				}
			}
		}
		prompt()
	}
}

func isDefine(d sexpr.Datum) bool {
	p, ok := d.(*sexpr.Pair)
	if !ok {
		return false
	}
	s, ok := p.Car.(sexpr.Sym)
	return ok && string(s) == "define"
}
