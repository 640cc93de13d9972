package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"tailspace/internal/core"
	"tailspace/internal/corpus"
	"tailspace/internal/experiments"
	"tailspace/internal/space"
)

// Every workload is a stream of rounds drawn from one seeded source. A round
// covers the workload's whole input space once — every corpus program, every
// sweep (program, n) rung — so its cost does not depend on the seed; the seed
// only draws machines, argument orders, cost models, repeat counts and the
// order of the ops. The measured window always ends on a round boundary,
// which keeps that composition fixed from run to run.

// interpOp is one answer-only run: a corpus program on one machine.
type interpOp struct {
	Program corpus.Program
	Machine core.Variant
	Order   core.ArgOrder
}

func (o interpOp) String() string {
	return fmt.Sprintf("interp %s %s %s", o.Program.Name, o.Machine.Name, orderName(o.Order))
}

// interpLeftOut is the one corpus run interp does not make: deep-list on
// Z_stack, whose return rule walks the whole store on every return. That run
// alone allocates 2 GB and takes about 2.5 s — two thirds of a round — and
// while other tenants load the machine's memory it takes twice as long, so
// with it the workload's ops_per_s spread 29% across ten seeds. Z_stack still
// runs the other 40 programs.
var interpLeftOut = [2]string{"deep-list", "stack"}

// interpRound is every corpus program on every machine of core.AllVariants
// (the eight Variants plus mta) but interpLeftOut, each with a drawn
// argument order, shuffled.
func interpRound(rng *rand.Rand) []interpOp {
	var ops []interpOp
	for _, p := range corpus.All() {
		for _, v := range core.AllVariants {
			if [2]string{p.Name, v.Name} == interpLeftOut {
				continue
			}
			ops = append(ops, interpOp{Program: p, Machine: v, Order: drawOrder(rng)})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// sweepProgram is one subject of the sweep workload: a program text for each
// input size n, applied to (quote n), and the ladder of n it is run at.
type sweepProgram struct {
	Name   string
	Source func(n int) string
	Ladder []int
}

// sweepLadders maps each sweep subject to its n ladder. The cost of a row is
// dominated by the Figure 8 meter, which walks the whole configuration, so
// the rungs stop where a row passes ~0.3 s on a 2-vCPU machine (the
// quadratic leaks and find-leftmost get the short ladders), keeping a round
// of the workload near five seconds.
var sweepLadders = map[string][]int{
	"probe/closure-capture":  {4, 8, 12},
	"probe/contracted-loop":  {8, 16, 32},
	"probe/countdown":        {8, 16, 32},
	"probe/find-leftmost":    {4, 6, 10},
	"probe/thunk-return":     {4, 8, 12},
	"probe/vector-frames":    {8, 16, 24},
	"param/contracted-leak":  {8, 16, 32},
	"param/even-odd":         {8, 16, 32},
	"param/evlis-leak":       {4, 8, 12},
	"param/retained-closure": {4, 8, 16},
	"param/sum-iter":         {8, 16, 32},
	"param/sum-rec":          {8, 16, 32},
	"thm26":                  {4, 8, 16},
}

// sweepPrograms returns the hierarchy probe set, the parametric leak
// programs that are not already probes, and the Theorem 26 family, in name
// order.
func sweepPrograms() []sweepProgram {
	var ps []sweepProgram
	add := func(name string, src func(int) string) {
		ps = append(ps, sweepProgram{Name: name, Source: src, Ladder: sweepLadders[name]})
	}
	probes := experiments.HierarchyProbePrograms()
	isProbe := map[string]bool{}
	for name, src := range probes {
		src := src
		isProbe[strings.TrimSpace(src)] = true
		add("probe/"+name, func(int) string { return src })
	}
	for _, p := range corpus.ParametricPrograms() {
		src := p.Source
		if isProbe[strings.TrimSpace(src)] {
			continue // contracted-loop is both a probe and a parametric program
		}
		add("param/"+p.Name, func(int) string { return src })
	}
	add("thm26", experiments.Thm26Program)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return ps
}

// sweepOp is one spacelab row: a (program, n, cost model) triple measured on
// all eight core.Variants.
type sweepOp struct {
	Program *sweepProgram
	N       int
	Model   space.CostModel
}

func (o sweepOp) String() string {
	return fmt.Sprintf("sweep %s n=%d %s", o.Program.Name, o.N, o.Model.Name())
}

// sweepRound is every rung of every ladder once. Each program's rungs get a
// drawn permutation of the three cost models, so every model prices every
// program once per round.
func sweepRound(rng *rand.Rand, progs []sweepProgram) []sweepOp {
	var ops []sweepOp
	for i := range progs {
		p := &progs[i]
		perm := rng.Perm(len(space.Models))
		for r, n := range p.Ladder {
			ops = append(ops, sweepOp{Program: p, N: n, Model: space.Models[perm[r%len(perm)]]})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// serveReq is one distinct request of the serve workload.
type serveReq struct {
	Kind string // eval | measure | lint | classify
	Path string
	Body []byte
	// Sends is how many times the request is sent (1–3): the first send is a
	// cache miss, the others hits.
	Sends int

	// What the checks and the direct re-runs need.
	Program  string // source text
	Input    string // datum for measure requests
	Answer   string // expected eval answer
	Machine  core.Variant
	Order    core.ArgOrder
	Model    space.CostModel
	Name     string // lint/classify report name
	MaxSteps int
}

// serveSend is one HTTP request on the wire.
type serveSend struct {
	Req   *serveReq
	First bool // the first send of Req, expected to miss the cache
}

func (s serveSend) String() string {
	return fmt.Sprintf("serve %s %s first=%t sends=%d", s.Req.Path, s.Req.Body, s.First, s.Req.Sends)
}

// serveMeasureLadder is the n of /v1/measure grids: flat-only grids are
// cheap, and n ≤ 8 keeps the worst grid (find-leftmost) near 60 ms.
var serveMeasureLadder = []int{4, 6, 8}

// serveEvalMachines leaves out Z_stack: its return rule walks the whole
// store, so a single cold eval of deep-list takes seconds and would decide
// the run on its own. interp measures Z_stack.
func serveEvalMachines() []core.Variant {
	var vs []core.Variant
	for _, v := range core.AllVariants {
		if v.Name != core.Stack.Name {
			vs = append(vs, v)
		}
	}
	return vs
}

// serveRound is round r of the serve workload: an eval of every corpus
// program on a drawn machine and order, a flat-only measure grid of every
// sweep program at a drawn n and cost model, and a lint and a classify of
// every corpus program. Each request is a fresh cache identity — evals and
// measures carry a per-round step bound, lints and classifies a per-round
// report name — so the round's hit and miss counts do not depend on what
// earlier rounds sent.
func serveRound(rng *rand.Rand, round int, progs []sweepProgram) []serveSend {
	maxSteps := 5_000_000 - round
	machines := serveEvalMachines()
	var evals, measures, lints, classifies []*serveReq
	for _, p := range corpus.All() {
		v := machines[rng.Intn(len(machines))]
		order := drawOrder(rng)
		evals = append(evals, &serveReq{
			Kind: "eval", Path: "/v1/eval", Program: p.Source, Answer: p.Answer,
			Machine: v, Order: order, MaxSteps: maxSteps,
			Body: mustJSON(map[string]any{
				"program": p.Source, "machine": v.Name, "order": orderName(order), "maxSteps": maxSteps,
			}),
		})
	}
	for _, p := range progs {
		n := serveMeasureLadder[rng.Intn(len(serveMeasureLadder))]
		model := space.Models[rng.Intn(len(space.Models))]
		src, input := p.Source(n), fmt.Sprintf("(quote %d)", n)
		measures = append(measures, &serveReq{
			Kind: "measure", Path: "/v1/measure", Program: src, Input: input,
			Model: model, MaxSteps: maxSteps,
			Body: mustJSON(map[string]any{
				"program": src, "input": input, "costModels": []string{model.Name()},
				"flatOnly": true, "maxSteps": maxSteps,
			}),
		})
	}
	for _, p := range corpus.All() {
		name := fmt.Sprintf("%s.r%d", p.Name, round)
		lints = append(lints, &serveReq{
			Kind: "lint", Path: "/v1/lint", Program: p.Source, Name: name,
			Body: mustJSON(map[string]any{"name": name, "program": p.Source}),
		})
		model := space.Models[rng.Intn(len(space.Models))]
		classifies = append(classifies, &serveReq{
			Kind: "classify", Path: "/v1/classify", Program: p.Source, Name: name, Model: model,
			Body: mustJSON(map[string]any{"name": name, "program": p.Source, "costModel": model.Name()}),
		})
	}
	var sends []serveSend
	for _, reqs := range [][]*serveReq{evals, measures, lints, classifies} {
		// Repeat counts cycle 1, 2, 3 over a drawn permutation, so each
		// kind's hit and miss counts are the same in every round.
		for i, j := range rng.Perm(len(reqs)) {
			reqs[j].Sends = 1 + i%3
		}
		for _, r := range reqs {
			for k := 0; k < r.Sends; k++ {
				sends = append(sends, serveSend{Req: r})
			}
		}
	}
	rng.Shuffle(len(sends), func(i, j int) { sends[i], sends[j] = sends[j], sends[i] })
	seen := map[*serveReq]bool{}
	for i := range sends {
		sends[i].First = !seen[sends[i].Req]
		seen[sends[i].Req] = true
	}
	return sends
}

func drawOrder(rng *rand.Rand) core.ArgOrder {
	if rng.Intn(2) == 0 {
		return core.LeftToRight
	}
	return core.RightToLeft
}

func orderName(o core.ArgOrder) string {
	if o == core.RightToLeft {
		return "right"
	}
	return "left"
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings, ints and bools are marshalled
	}
	return b
}
