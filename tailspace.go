// Package tailspace is a reproduction of William D. Clinger's "Proper Tail
// Recursion and Space Efficiency" (PLDI 1998). It provides:
//
//   - the paper's six reference implementations of Core Scheme — Z_tail,
//     Z_gc, Z_stack, Z_evlis, Z_free, and Z_sfs — as small-step CEKS
//     machines differing only in the rules Sections 7-10 vary;
//   - the flat (Figure 7) and linked (Figure 8) space-accounting semantics,
//     so any run reports its S_X and U_X space consumption;
//   - the Definition 1/2 static tail-call classifier behind Figure 2;
//   - the experiment harness that reproduces Theorems 24-26 and the
//     Section 4 and Section 12 observations (see internal/experiments and
//     cmd/spacelab).
//
// The package front door works on Scheme source text:
//
//	res, err := tailspace.Run("(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 1000)",
//	    tailspace.Options{Variant: tailspace.Tail, Measure: true})
//	fmt.Println(res.Answer, res.SpaceFlat)
package tailspace

import (
	"fmt"

	"tailspace/internal/analysis"
	"tailspace/internal/core"
	"tailspace/internal/cps"
	"tailspace/internal/secd"
	"tailspace/internal/space"
)

// Variant names one of the paper's reference implementations.
type Variant string

// The reference implementations. Tail is the properly tail recursive
// machine of Figure 5; GC and Stack are the improperly tail recursive
// machines of Section 8; Evlis adds evlis tail recursion (Section 9); Free
// closes over free variables only, and SFS is Appel-style safe-for-space
// (Section 10).
const (
	Tail  Variant = "tail"
	GC    Variant = "gc"
	Stack Variant = "stack"
	Evlis Variant = "evlis"
	Free  Variant = "free"
	SFS   Variant = "sfs"
	// Naive and SpaceEff extend Tail with contract monitoring (every other
	// machine erases contracts). Naive pushes a fresh pending-check frame
	// per guarded call, so a contracted tail loop costs Θ(n) space; SpaceEff
	// joins adjacent frames and drops duplicate checks by contract identity,
	// restoring the tail-recursive space bound.
	Naive    Variant = "naive"
	SpaceEff Variant = "spaceff"
	// MTA is the Section 14 extension: it pushes a continuation on every
	// call, like GC, but its collector compresses dead frame chains
	// (Baker's Cheney-on-the-MTA), so it is properly tail recursive by the
	// paper's space-class definition despite its improper-looking rules.
	MTA Variant = "mta"
)

// Variants lists the machine family MeasureAll iterates: the paper's six
// reference implementations plus the two contract monitors (MTA is
// available by name).
var Variants = []Variant{Stack, GC, Tail, Evlis, Free, SFS, Naive, SpaceEff}

// GCEveryOff, as Options.GCEvery, disables the garbage collection rule
// unconditionally instead of selecting the default policy.
const GCEveryOff = core.GCEveryOff

// Order selects the permutation π used to evaluate call subexpressions —
// nondeterministic in the paper, a policy here.
type Order int

const (
	// LeftToRight evaluates operator then operands in source order.
	LeftToRight Order = iota
	// RightToLeft evaluates the last operand first.
	RightToLeft
	// RandomOrder draws a fresh permutation per call from a seeded source.
	RandomOrder
)

// Options configures a run.
type Options struct {
	// Variant selects the reference implementation; default Tail.
	Variant Variant
	// Measure enables the Figure 7/8 space accounting (slower; required for
	// SpaceFlat/SpaceLinked).
	Measure bool
	// CostModel selects the space cost model by name: "word" (Figure 7/8
	// word counts, the default), "fixnum" (fixed-precision numbers: every
	// number costs a constant instead of 1+log2|z|), or "log" (logarithmic
	// pointer costs).
	CostModel string
	// MaxSteps bounds the run; 0 means the default (5 million transitions).
	MaxSteps int
	// GCEvery applies the garbage collection rule every k-th step; 0 means
	// the default (after every step when measuring — the space-efficient
	// computations of Definition 21 — and never otherwise). GCEveryOff
	// disables the rule unconditionally; combining it with Measure is an
	// error, since peaks without collection would count garbage as live.
	GCEvery int
	// Order resolves the argument-evaluation permutation.
	Order Order
	// StackStrict makes Z_stack delete whole frames, sticking on dangling
	// pointers, instead of deleting the maximal safe subset.
	StackStrict bool
	// Seed reseeds the deterministic random source used by the `random`
	// primitive and RandomOrder.
	Seed int64
}

// Result reports a finished run.
type Result struct {
	// Answer is the observable answer of Definition 11.
	Answer string
	// Steps counts machine transitions (GC-rule applications excluded).
	Steps int
	// ProgramSize is |P|, the node count of the expanded program.
	ProgramSize int
	// SpaceFlat is the S_X(P, D) sample: |P| plus the peak Figure 7 space
	// over the space-efficient computation. Zero unless Options.Measure.
	SpaceFlat int
	// SpaceLinked is the U_X(P, D) sample (Figure 8). Zero unless Measure.
	SpaceLinked int
	// PeakHeap is the largest number of live store locations.
	PeakHeap int
	// PeakContDepth is the deepest continuation chain.
	PeakContDepth int
	// Collections counts applications of the garbage collection rule that
	// reclaimed at least one location.
	Collections int
}

func (o Options) toCore() (core.Options, error) {
	v := core.Tail
	if o.Variant != "" {
		var ok bool
		v, ok = core.ByName(string(o.Variant))
		if !ok {
			return core.Options{}, fmt.Errorf("tailspace: unknown variant %q", o.Variant)
		}
	}
	model, err := space.ModelByName(o.CostModel)
	if err != nil {
		return core.Options{}, fmt.Errorf("tailspace: %w", err)
	}
	return core.Options{
		Variant:     v,
		Measure:     o.Measure,
		CostModel:   model,
		MaxSteps:    o.MaxSteps,
		GCEvery:     o.GCEvery,
		Order:       core.ArgOrder(o.Order),
		StackStrict: o.StackStrict,
		Seed:        o.Seed,
	}, nil
}

func fromCore(res core.Result) (Result, error) {
	out := Result{
		Answer:        res.Answer,
		Steps:         res.Steps,
		ProgramSize:   res.ProgramSize,
		SpaceFlat:     res.PeakFlat,
		SpaceLinked:   res.PeakLinked,
		PeakHeap:      res.PeakHeap,
		PeakContDepth: res.PeakContDepth,
		Collections:   res.Collections,
	}
	return out, res.Err
}

// Run parses, expands, and evaluates a Scheme program (a sequence of
// definitions followed by expressions).
func Run(src string, opts Options) (Result, error) {
	copts, err := opts.toCore()
	if err != nil {
		return Result{}, err
	}
	res, err := core.RunProgram(src, copts)
	if err != nil {
		return Result{}, err
	}
	return fromCore(res)
}

// Apply builds the paper's Definition 23 configuration — the program (an
// expression evaluating to a procedure of one argument) applied to the input
// expression — and evaluates it. This is how the space consumption functions
// S_X(P, D) are sampled:
//
//	res, _ := tailspace.Apply(program, "(quote 1000)",
//	    tailspace.Options{Variant: tailspace.Tail, Measure: true})
//	// res.SpaceFlat is S_tail(P, 1000); res.SpaceLinked is U_tail(P, 1000).
func Apply(programSrc, inputSrc string, opts Options) (Result, error) {
	copts, err := opts.toCore()
	if err != nil {
		return Result{}, err
	}
	res, err := core.RunApplication(programSrc, inputSrc, copts)
	if err != nil {
		return Result{}, err
	}
	return fromCore(res)
}

// MeasureAll samples S_X(P, D) and U_X(P, D) under every reference
// implementation; the returned map is keyed by variant. Use it to check the
// Theorem 24 inequalities on your own programs.
func MeasureAll(programSrc, inputSrc string, opts Options) (map[Variant]Result, error) {
	opts.Measure = true
	out := make(map[Variant]Result, len(Variants))
	for _, v := range Variants {
		opts.Variant = v
		res, err := Apply(programSrc, inputSrc, opts)
		if err != nil {
			return out, fmt.Errorf("%s: %w", v, err)
		}
		out[v] = res
	}
	return out, nil
}

// TailCallStats reports the Definition 1/2 classification of every call
// site in a program: the measurement behind the paper's Figure 2.
type TailCallStats struct {
	// Calls is the number of call sites.
	Calls int
	// NonTail counts calls in non-tail position.
	NonTail int
	// TailCalls counts all tail calls (self and known-closure included).
	TailCalls int
	// SelfTail counts tail calls to the enclosing procedure.
	SelfTail int
	// KnownClosureTail counts tail calls whose operator is a literal lambda
	// (let-style); the paper's Figure 2 folds these into the self column.
	KnownClosureTail int
}

// AnalyzeTailCalls classifies the call sites of a Scheme program.
func AnalyzeTailCalls(src string) (TailCallStats, error) {
	s, err := analysis.AnalyzeSource("program", src)
	if err != nil {
		return TailCallStats{}, err
	}
	return TailCallStats{
		Calls:            s.Calls,
		NonTail:          s.NonTail,
		TailCalls:        s.Tail(),
		SelfTail:         s.SelfTail,
		KnownClosureTail: s.KnownTail,
	}, nil
}

// ControlVerdict is the result of the static control-space analysis.
type ControlVerdict string

// The three verdicts of CheckControlSpace.
const (
	// ControlBounded: the program's continuation depth under the properly
	// tail recursive machine is provably independent of its input.
	ControlBounded ControlVerdict = "bounded"
	// ControlUnknown: a non-tail call to a statically unknown procedure
	// prevents a proof either way.
	ControlUnknown ControlVerdict = "unknown"
	// ControlUnbounded: a non-tail call site inside a call-graph cycle was
	// found — the program builds control stack even on Z_tail.
	ControlUnbounded ControlVerdict = "unbounded"
)

// ControlSpaceReport is the static analysis output: the verdict plus one
// finding per offending call site.
type ControlSpaceReport struct {
	Verdict  ControlVerdict
	Findings []string
}

// CheckControlSpace statically decides whether a program's control space
// under the properly tail recursive machine is bounded — the executable
// core of the paper's Section 16 call for formal reasoning about space.
// Bounded is a proof; Unbounded comes with the offending non-tail recursive
// call sites; higher-order non-tail calls yield Unknown.
func CheckControlSpace(src string) (ControlSpaceReport, error) {
	rep, err := analysis.ControlSpaceSource(src)
	if err != nil {
		return ControlSpaceReport{}, err
	}
	return ControlSpaceReport{
		Verdict:  ControlVerdict(rep.Verdict.String()),
		Findings: rep.Findings,
	}, nil
}

// RunCPS converts the program to continuation-passing style (the [Ste78]
// transformation the IEEE standard cites when it requires proper tail
// recursion) and runs the converted program. After conversion every call to
// an unknown procedure is a tail call, and call/cc has compiled away into
// ordinary closures.
func RunCPS(src string, opts Options) (Result, error) {
	copts, err := opts.toCore()
	if err != nil {
		return Result{}, err
	}
	converted, err := cps.ConvertSource(src)
	if err != nil {
		return Result{}, err
	}
	return fromCore(core.NewRunner(copts).Run(converted))
}

// SECDResult reports a run of compiled SECD code.
type SECDResult struct {
	// Answer is the observable answer.
	Answer string
	// Steps counts machine cycles.
	Steps int
	// PeakDump is the deepest dump — the machine's control stack.
	PeakDump int
	// PeakState is the largest total machine-state size in words.
	PeakState int
}

// RunSECD compiles the program to SECD machine code and executes it.
// With tailRecursive true it runs on Ramsdell's tail recursive SECD machine
// (tail applications are gotos); otherwise on Landin's classic machine,
// whose dump grows on every call. Programs using call/cc or apply are
// outside the SECD subset and return an error at compile time.
func RunSECD(src string, tailRecursive bool) (SECDResult, error) {
	code, err := secd.CompileSource(src)
	if err != nil {
		return SECDResult{}, err
	}
	mode := secd.Classic
	if tailRecursive {
		mode = secd.TailRecursive
	}
	res := secd.Run(code, mode, 0)
	if res.Err != nil {
		return SECDResult{}, res.Err
	}
	return SECDResult{
		Answer:    res.Answer,
		Steps:     res.Steps,
		PeakDump:  res.PeakDump,
		PeakState: res.PeakState,
	}, nil
}

// IsProperlyTailRecursive runs the paper's headline check on this library's
// own Z_tail machine: the iterative countdown loop must execute in space
// independent of its input (Definition 5 sampled at two points). It exists
// mostly as an executable sanity check and an example of the API.
func IsProperlyTailRecursive(v Variant) (bool, error) {
	const loop = "(define (f n) (if (zero? n) 0 (f (- n 1))))"
	opts := Options{Variant: v, Measure: true, CostModel: "fixnum"}
	small, err := Apply(loop, "(quote 10)", opts)
	if err != nil {
		return false, err
	}
	large, err := Apply(loop, "(quote 400)", opts)
	if err != nil {
		return false, err
	}
	return large.SpaceFlat == small.SpaceFlat, nil
}
