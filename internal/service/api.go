// Package service implements spaced, the long-lived space-measurement
// server over the repo's engine: the six Clinger machines (POST /v1/eval),
// the Definition 21 S_X/U_X meters (POST /v1/measure), and the static
// space-leak analyzer (POST /v1/lint), behind a bounded worker pool with
// per-request deadlines, client-disconnect cancellation, and a
// content-addressed result cache with single-flight coalescing.
//
// The wire format is JSON over HTTP. Requests name programs by source text
// (the server expands them itself), machines by the paper's names
// (tail|gc|stack|evlis|free|sfs|mta), and space cost models by
// "word"/"fixnum"/"log". Every measurement a response reports is computed
// by exactly the option set the spacelab sweeps use (Measure, GCEvery: 1),
// so a service cell and a spacelab cell for the same inputs are identical.
package service

import (
	"fmt"

	"tailspace/internal/analysis"
	"tailspace/internal/core"
	"tailspace/internal/space"
)

// EvalRequest runs a program — optionally applied to an input datum, the
// (P D) shape of Definition 23 — on one machine, without space accounting.
type EvalRequest struct {
	// Program is Scheme source text (full surface language; the server
	// expands it).
	Program string `json:"program"`
	// Input, when non-empty, is a datum expression; the server evaluates
	// (P Input) instead of P alone.
	Input string `json:"input,omitempty"`
	// Machine selects the reference implementation; empty means "tail".
	Machine string `json:"machine,omitempty"`
	// MaxSteps bounds the computation; 0 means the server default, and
	// values above the server's cap are clamped to it.
	MaxSteps int `json:"maxSteps,omitempty"`
	// Order is the argument-evaluation permutation: "left" (default) or
	// "right". The random order is rejected — its results are not
	// deterministic, so they must not enter the content-addressed cache.
	Order string `json:"order,omitempty"`
}

// EvalResponse is the observable outcome of one run.
type EvalResponse struct {
	Machine string `json:"machine"`
	// Outcome is "answer", "stuck", or "max-steps".
	Outcome string `json:"outcome"`
	// Answer is the rendered observable answer (Definition 11); empty
	// unless Outcome is "answer".
	Answer string `json:"answer,omitempty"`
	Steps  int    `json:"steps"`
	// Error carries the stuck diagnostic when Outcome is "stuck".
	Error string `json:"error,omitempty"`
}

// MeasureRequest measures S_X (and, unless FlatOnly, U_X) peaks for one
// program across a machine × cost-model grid.
type MeasureRequest struct {
	Program string `json:"program"`
	Input   string `json:"input,omitempty"`
	// Machines lists the grid's machines; empty means the full family —
	// the paper's six machines plus the two contract monitors.
	Machines []string `json:"machines,omitempty"`
	// CostModels lists space cost models ("word", "fixnum", "log"); empty
	// means word only. Each model is a distinct cache identity: the same
	// program under two models is two cache entries.
	CostModels []string `json:"costModels,omitempty"`
	// FlatOnly skips the Figure 8 linked measurement (U_X). The default
	// meter keeps U_X by reference counting at O(references gained or lost)
	// per step; a flat-only run skips even that and reports no U_X peaks.
	FlatOnly bool   `json:"flatOnly,omitempty"`
	MaxSteps int    `json:"maxSteps,omitempty"`
	Order    string `json:"order,omitempty"`
}

// MeasureCell is one grid cell: the peaks of one (machine, cost-model) run.
type MeasureCell struct {
	Machine   string `json:"machine"`
	CostModel string `json:"costModel"`
	Outcome   string `json:"outcome"`
	// Flat is |P| + peak Figure 7 space (the S_X sample); Linked is
	// |P| + peak Figure 8 space (the U_X sample, 0 when flatOnly).
	Flat      int    `json:"flat"`
	Linked    int    `json:"linked,omitempty"`
	Heap      int    `json:"heap"`
	ContDepth int    `json:"contDepth"`
	Steps     int    `json:"steps"`
	Answer    string `json:"answer,omitempty"`
	Error     string `json:"error,omitempty"`
}

// MeasureResponse is the full grid, cells in machines × costModels request
// order.
type MeasureResponse struct {
	ProgramSize int           `json:"programSize"`
	Cells       []MeasureCell `json:"cells"`
}

// LintRequest runs the static space-leak analyzer on one program.
type LintRequest struct {
	// Name labels the program in the report; empty means "program".
	Name    string `json:"name,omitempty"`
	Program string `json:"program"`
}

// LintResponse is the analyzer's report, in the same JSON shape tailscan
// -lint -json emits (pinned there by a golden test).
type LintResponse struct {
	*analysis.LintReport
	// Confirmed mirrors LintReport.Confirmed() so clients need not count
	// leaks themselves.
	Confirmed bool `json:"confirmed"`
}

// ClassifyRequest derives per-machine space-class certificates for one
// program: for each of the paper's six machines, an O(1)/O(n)/unbounded
// upper bound on S_X with the evidence that forced it.
type ClassifyRequest struct {
	// Name labels the program in the report; empty means "program".
	Name    string `json:"name,omitempty"`
	Program string `json:"program"`
	// CostModel is the space cost model the certificates are stated under
	// ("word", "fixnum", or "log"); empty means word. Logarithmic pricing
	// widens unit-cost bounds, so the model is part of the cache identity.
	CostModel string `json:"costModel,omitempty"`
}

// ClassifyResponse is the certificate report, in the same JSON shape
// tailscan -classify -json emits one element of.
type ClassifyResponse struct {
	*analysis.ClassifyReport
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status string `json:"status"`
	// Version is the spaced build identity (internal/version), so a probe
	// can tell which build is answering.
	Version string `json:"version"`
	// UptimeSeconds is whole seconds since the Server was constructed.
	UptimeSeconds int64 `json:"uptimeSeconds"`
	Workers       int   `json:"workers"`
	// Cache is the resident result-cache entry count.
	Cache int `json:"cache"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// outcomeOf classifies a finished run the way the responses report it.
func outcomeOf(err error) (outcome, msg string) {
	switch {
	case err == nil:
		return "answer", ""
	case err == core.ErrMaxSteps:
		return "max-steps", err.Error()
	default:
		return "stuck", err.Error()
	}
}

// parseMachine resolves a wire machine name.
func parseMachine(name string) (core.Variant, error) {
	if name == "" {
		name = "tail"
	}
	v, ok := core.ByName(name)
	if !ok {
		return core.Variant{}, fmt.Errorf("unknown machine %q (want tail|gc|stack|evlis|free|sfs|naive|spaceff|mta)", name)
	}
	return v, nil
}

// parseCostModel resolves a wire cost-model name.
func parseCostModel(name string) (space.CostModel, error) {
	m, err := space.ModelByName(name)
	if err != nil {
		return nil, fmt.Errorf("unknown cost model %q (want word|fixnum|log)", name)
	}
	return m, nil
}

// parseOrder resolves a wire argument-order name. RandomOrder is rejected:
// a nondeterministic run has no content-addressed identity.
func parseOrder(name string) (core.ArgOrder, error) {
	switch name {
	case "", "left":
		return core.LeftToRight, nil
	case "right":
		return core.RightToLeft, nil
	case "random":
		return 0, fmt.Errorf("order %q is nondeterministic and cannot be served from a content-addressed cache", name)
	}
	return 0, fmt.Errorf("unknown order %q (want left|right)", name)
}
