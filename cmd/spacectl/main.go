// Command spacectl is the client for the spaced daemon: it submits Scheme
// source files (or corpus program names) and pretty-prints the responses.
//
//	spacectl [-addr URL] eval <program> [-input D] [-machine M] [-steps N]
//	spacectl [-addr URL] measure <program> [-input D] [-machines a,b] [-cost-model word,log] [-flat-only] [-steps N]
//	spacectl [-addr URL] lint <program>
//	spacectl [-addr URL] classify <program> [-cost-model M]
//	spacectl [-addr URL] trace <request-id> [-chrome]
//	spacectl [-addr URL] top [-interval D] [-samples N]
//	spacectl [-addr URL] health
//	spacectl [-addr URL] metrics
//
// <program> is a path to a Scheme source file or the name of a bundled
// corpus program. -json switches every subcommand to raw JSON output. The
// exit status is non-zero on transport errors, non-2xx responses, runs that
// ended without an answer, and confirmed lint leaks.
//
// trace streams the live engine events of a request by its trace ID (set
// X-Request-Id on the POST, or read X-Trace-Id off the response); -chrome
// exports the request's spans for chrome://tracing instead. top redraws a
// terminal dashboard over GET /metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"tailspace/internal/corpus"
	"tailspace/internal/service"
	"tailspace/internal/version"
)

func main() {
	fs := flag.NewFlagSet("spacectl", flag.ExitOnError)
	fs.Usage = usage
	addr := fs.String("addr", "http://127.0.0.1:8750", "spaced base URL")
	input := fs.String("input", "", "input datum D; the server runs (P D)")
	machine := fs.String("machine", "", "eval: machine name (default tail)")
	machines := fs.String("machines", "", "measure: comma-separated machine names (default: the full eight-machine family)")
	costModels := fs.String("cost-model", "", "measure: comma-separated space cost models (word,fixnum,log); classify: one model")
	flatOnly := fs.Bool("flat-only", false, "measure: skip the linked (U_X) measurement")
	steps := fs.Int("steps", 0, "step bound (0 means the server default)")
	jsonOut := fs.Bool("json", false, "print raw response JSON")
	requestID := fs.String("request-id", "", "X-Request-Id to send: the request's trace ID, for spacectl trace")
	prom := fs.Bool("prom", false, "metrics: fetch the Prometheus text exposition instead of JSON")
	chrome := fs.Bool("chrome", false, "trace: export spans as a Chrome trace instead of streaming events")
	interval := fs.Duration("interval", 2*time.Second, "top: refresh interval")
	samples := fs.Int("samples", 0, "top: frames to draw (0 means until interrupted; 1 prints once)")
	timeout := fs.Duration("timeout", 2*time.Minute, "client-side request timeout")
	showVersion := fs.Bool("version", false, "print version and exit")
	fs.Parse(os.Args[1:])
	if *showVersion {
		version.Print(os.Stdout, "spacectl")
		return
	}
	if fs.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	client := &http.Client{Timeout: *timeout}
	base := strings.TrimRight(*addr, "/")
	traceHeader = *requestID

	cmd, args := fs.Arg(0), fs.Args()[1:]
	var exit int
	switch cmd {
	case "eval":
		exit = cmdEval(client, base, args, *input, *machine, *steps, *jsonOut)
	case "measure":
		exit = cmdMeasure(client, base, args, *input, *machines, *costModels, *flatOnly, *steps, *jsonOut)
	case "lint":
		exit = cmdLint(client, base, args, *jsonOut)
	case "classify":
		exit = cmdClassify(client, base, args, *costModels, *jsonOut)
	case "trace":
		exit = cmdTrace(base, args, *chrome)
	case "top":
		exit = cmdTop(client, base, *interval, *samples)
	case "health":
		exit = cmdGet(client, base+"/healthz")
	case "get":
		if len(args) != 1 {
			usage()
			exit = 2
			break
		}
		exit = cmdGet(client, base+args[0])
	case "metrics":
		exit = cmdMetrics(client, base, *jsonOut, *prom)
	default:
		usage()
		exit = 2
	}
	os.Exit(exit)
}

// loadProgram resolves a program argument: a readable file, or the name of
// a bundled corpus program.
func loadProgram(arg string) (string, error) {
	if b, err := os.ReadFile(arg); err == nil {
		return string(b), nil
	}
	if p, ok := corpus.ByName(arg); ok {
		return p.Source, nil
	}
	return "", fmt.Errorf("program %q is neither a readable file nor a corpus program", arg)
}

// traceHeader is the -request-id value, sent as X-Request-Id on every POST
// so the caller knows the trace ID before the response exists (and can
// stream the run it started with spacectl trace).
var traceHeader string

// post sends one request and decodes the response; a non-2xx status is
// rendered from the server's error body.
func post(client *http.Client, url string, req any, resp any, jsonOut bool) error {
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceHeader != "" {
		hreq.Header.Set("X-Request-Id", traceHeader)
	}
	hresp, err := client.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	body, err := io.ReadAll(hresp.Body)
	if err != nil {
		return err
	}
	if hresp.StatusCode != http.StatusOK {
		var er service.ErrorResponse
		if json.Unmarshal(body, &er) == nil && er.Error != "" {
			return fmt.Errorf("%s: %s", hresp.Status, er.Error)
		}
		return fmt.Errorf("%s: %s", hresp.Status, strings.TrimSpace(string(body)))
	}
	if jsonOut {
		os.Stdout.Write(body)
		if !bytes.HasSuffix(body, []byte("\n")) {
			fmt.Println()
		}
		return nil
	}
	return json.Unmarshal(body, resp)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "spacectl:", err)
	return 1
}

func cmdEval(client *http.Client, base string, args []string, input, machine string, steps int, jsonOut bool) int {
	if len(args) != 1 {
		usage()
		return 2
	}
	src, err := loadProgram(args[0])
	if err != nil {
		return fail(err)
	}
	var resp service.EvalResponse
	req := service.EvalRequest{Program: src, Input: input, Machine: machine, MaxSteps: steps}
	if err := post(client, base+"/v1/eval", req, &resp, jsonOut); err != nil {
		return fail(err)
	}
	if jsonOut {
		return 0
	}
	switch resp.Outcome {
	case "answer":
		fmt.Printf("%s [%s]: %s in %d steps\n", args[0], resp.Machine, resp.Answer, resp.Steps)
		return 0
	default:
		fmt.Printf("%s [%s]: %s after %d steps", args[0], resp.Machine, resp.Outcome, resp.Steps)
		if resp.Error != "" {
			fmt.Printf(" (%s)", resp.Error)
		}
		fmt.Println()
		return 1
	}
}

func cmdMeasure(client *http.Client, base string, args []string, input, machines, costModels string, flatOnly bool, steps int, jsonOut bool) int {
	if len(args) != 1 {
		usage()
		return 2
	}
	src, err := loadProgram(args[0])
	if err != nil {
		return fail(err)
	}
	req := service.MeasureRequest{
		Program: src, Input: input, FlatOnly: flatOnly, MaxSteps: steps,
		Machines: splitList(machines), CostModels: splitList(costModels),
	}
	var resp service.MeasureResponse
	if err := post(client, base+"/v1/measure", req, &resp, jsonOut); err != nil {
		return fail(err)
	}
	if jsonOut {
		return 0
	}
	fmt.Printf("%s: |P| = %d\n", args[0], resp.ProgramSize)
	fmt.Printf("%-8s %-12s %10s %10s %8s %8s %9s  %s\n",
		"machine", "model", "S_X", "U_X", "heap", "depth", "steps", "outcome")
	exit := 0
	for _, c := range resp.Cells {
		linked := fmt.Sprintf("%d", c.Linked)
		if flatOnly {
			linked = "-"
		}
		outcome := c.Outcome
		if c.Outcome == "answer" {
			outcome = "answer " + c.Answer
		} else {
			exit = 1
		}
		fmt.Printf("%-8s %-12s %10d %10s %8d %8d %9d  %s\n",
			c.Machine, c.CostModel, c.Flat, linked, c.Heap, c.ContDepth, c.Steps, outcome)
	}
	return exit
}

func cmdLint(client *http.Client, base string, args []string, jsonOut bool) int {
	if len(args) != 1 {
		usage()
		return 2
	}
	src, err := loadProgram(args[0])
	if err != nil {
		return fail(err)
	}
	var resp service.LintResponse
	req := service.LintRequest{Name: args[0], Program: src}
	if err := post(client, base+"/v1/lint", req, &resp, jsonOut); err != nil {
		return fail(err)
	}
	if jsonOut {
		return 0
	}
	fmt.Print(resp.Render())
	if resp.Confirmed {
		return 1
	}
	return 0
}

func cmdClassify(client *http.Client, base string, args []string, costModel string, jsonOut bool) int {
	if len(args) != 1 {
		usage()
		return 2
	}
	src, err := loadProgram(args[0])
	if err != nil {
		return fail(err)
	}
	var resp service.ClassifyResponse
	req := service.ClassifyRequest{Name: args[0], Program: src, CostModel: costModel}
	if err := post(client, base+"/v1/classify", req, &resp, jsonOut); err != nil {
		return fail(err)
	}
	if jsonOut {
		return 0
	}
	fmt.Print(resp.Render())
	return 0
}

func cmdGet(client *http.Client, url string) int {
	resp, err := client.Get(url)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	os.Stdout.Write(body)
	if resp.StatusCode != http.StatusOK {
		return 1
	}
	return 0
}

func cmdMetrics(client *http.Client, base string, jsonOut, prom bool) int {
	url := base + "/metrics"
	if prom {
		url += "?format=prometheus"
	}
	resp, err := client.Get(url)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "spacectl: %s: %s\n", resp.Status, body)
		return 1
	}
	if jsonOut || prom {
		os.Stdout.Write(body)
		return 0
	}
	var snap map[string]int64
	if err := json.Unmarshal(body, &snap); err != nil {
		return fail(err)
	}
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-28s %d\n", name, snap[name])
	}
	return 0
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: spacectl [-addr URL] [-json] <command> [args]
commands:
  eval <program>     [-input D] [-machine M] [-steps N]
                                                          run on one machine
  measure <program>  [-input D] [-machines a,b] [-cost-model word,log] [-flat-only] [-steps N]
                                                          S/U peaks across the grid
  lint <program>                                          static space-leak verdicts
  classify <program> [-cost-model M]                      per-machine space-class certificates
  trace <request-id> [-chrome]                            follow one request's run events or spans
  top [-interval D] [-samples N]                          live dashboard over /metrics
  health                                                  GET /healthz
  metrics [-prom]                                         GET /metrics (sorted table, or Prometheus text)
  get <path>                                              raw GET of any server path
<program> is a Scheme source file or a corpus program name.
Flags must precede the command (standard flag package ordering).`)
}
