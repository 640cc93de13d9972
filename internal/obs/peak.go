package obs

import (
	"fmt"
	"strings"

	"tailspace/internal/env"
	"tailspace/internal/space"
	"tailspace/internal/value"
)

// maxReportFrames bounds the continuation frames a PeakReport snapshots, so
// attribution stays O(1)-ish per peak update even when the chain is deep;
// FramesTotal still records the full depth.
const maxReportFrames = 16

// maxReportRibs bounds the identifiers listed per environment rib.
const maxReportRibs = 8

// Frame summarizes one continuation frame live at a peak.
type Frame struct {
	// Kind is the continuation constructor: "halt", "select", "assign",
	// "push", "call", "return", "return-stack", or one of the monitor
	// frames "mon-ctc", "mon-attach", "mon-dom", "mon-cod", "mon-chk".
	Kind string `json:"kind"`
	// Charge is the frame's contribution to space(κ) under the run's cost
	// model, collapsed at the pointer width of the live store at the peak.
	Charge int `json:"charge"`
	// EnvSize is |Dom ρ| of the frame's saved environment (0 when the frame
	// carries none).
	EnvSize int `json:"env_size,omitempty"`
	// Pending is the source the frame will evaluate or deliver next, when it
	// has one (abbreviated).
	Pending string `json:"pending,omitempty"`
	// Ribs lists identifiers of the saved environment's rib — the live-rib
	// provenance of the frame's charge (capped; "…" marks a cut).
	Ribs []string `json:"ribs,omitempty"`
}

// PeakReport attributes a flat-space peak: which machine rule produced the
// peak configuration, which source expression was being evaluated, and what
// the continuation chain and live ribs were retaining when the supremum was
// hit. The runner rebuilds it on every flat-peak update, so after the run it
// describes the configuration that realized S_X(P, D).
type PeakReport struct {
	// Machine is the variant name; Step the transition count; Flat the peak
	// |P| + Figure 7 space it attributes.
	Machine string `json:"machine"`
	Step    int    `json:"step"`
	Flat    int    `json:"flat"`
	// Rule is the transition rule that produced the peak configuration
	// ("none" for the initial configuration).
	Rule string `json:"rule"`
	// Expr is the source expression live at the peak (the configuration's
	// expression, or the most recently evaluated one for value
	// configurations) and NodeID its pre-order AST node ID (0 when unknown).
	Expr   string `json:"expr"`
	NodeID int    `json:"node,omitempty"`
	// EnvSize and EnvRibs describe the configuration's own environment.
	EnvSize int      `json:"env_size"`
	EnvRibs []string `json:"env_ribs,omitempty"`
	// Frames is the top of the continuation chain (at most maxReportFrames
	// entries); FramesTotal is the whole chain's length and ContCharge its
	// full Figure 7 space(κ).
	Frames      []Frame `json:"frames"`
	FramesTotal int     `json:"frames_total"`
	ContCharge  int     `json:"cont_charge"`
	// StoreCells is |Dom σ| at the peak.
	StoreCells int `json:"store_cells"`
}

// NewPeakReport snapshots the configuration (rho, k, st) into an
// attribution report. rule and expr describe the transition that produced
// the configuration; model selects the cost model for frame charges (nil
// means the default WordModel).
func NewPeakReport(machine string, step, flat int, rule, expr string, nodeID int,
	rho env.Env, k value.Cont, st *value.Store, model space.CostModel) *PeakReport {
	m := space.NewMeasurer(model)
	width := m.PtrWidth(st)
	r := &PeakReport{
		Machine: machine,
		Step:    step,
		Flat:    flat,
		Rule:    rule,
		Expr:    Abbrev(expr, 80),
		NodeID:  nodeID,
		EnvSize: rho.Size(),
		EnvRibs: ribs(rho),
	}
	if st != nil {
		r.StoreCells = st.Size()
	}
	for cur := k; cur != nil; cur = cur.Next() {
		r.FramesTotal++
		charge := m.Frame(cur).At(width)
		r.ContCharge += charge
		if len(r.Frames) < maxReportFrames {
			r.Frames = append(r.Frames, snapshotFrame(cur, charge))
		}
	}
	return r
}

// snapshotFrame summarizes one continuation frame: the saved environment
// comes from the frame's parts, the kind and pending source from its kind.
func snapshotFrame(k value.Cont, charge int) Frame {
	p := k.Parts()
	f := Frame{Charge: charge, EnvSize: p.Env.Size(), Ribs: ribs(p.Env)}
	switch x := k.(type) {
	case value.Halt:
		f.Kind = "halt"
	case *value.Select:
		f.Kind = "select"
		f.Pending = Abbrev("(if · "+x.Then.String()+" "+x.Else.String()+")", 60)
	case *value.Assign:
		f.Kind = "assign"
		f.Pending = Abbrev("(set! "+x.Name+" ·)", 60)
	case *value.Push:
		f.Kind = "push"
		if next := x.N + 1; next < len(x.Rec.Pi) {
			f.Pending = Abbrev(x.Rec.Exprs[x.Rec.Pi[next]].String(), 60)
		}
	case *value.Call:
		f.Kind = "call"
	case *value.Return:
		f.Kind = "return"
	case *value.ReturnStack:
		f.Kind = "return-stack"
	case *value.MonCtc:
		f.Kind = "mon-ctc"
		f.Pending = Abbrev("(mon · "+x.Expr.String()+")", 60)
	case *value.MonAttach:
		f.Kind = "mon-attach"
	case *value.MonDom:
		f.Kind = "mon-dom"
		label := x.G.(value.Guarded).Label
		f.Pending = Abbrev(fmt.Sprintf("(check dom %d of %s)", x.Idx, label), 60)
	case *value.MonCod:
		f.Kind = "mon-cod"
		f.Pending = Abbrev(fmt.Sprintf("(%d pending cod checks)", len(x.Pend)), 60)
	case *value.MonChk:
		f.Kind = "mon-chk"
	default:
		f.Kind = fmt.Sprintf("%T", k)
	}
	return f
}

// ribs lists the rib's identifiers, lexically sorted and capped.
func ribs(rho env.Env) []string {
	dom := rho.Domain()
	if len(dom) > maxReportRibs {
		dom = append(dom[:maxReportRibs:maxReportRibs], "…")
	}
	return dom
}

// Render lays the report out for the terminal (the spacelab -explain-peak
// output).
func (r *PeakReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "peak S_%s = %d at step %d — rule %s\n", r.Machine, r.Flat, r.Step, r.Rule)
	fmt.Fprintf(&sb, "  source expression: %s", r.Expr)
	if r.NodeID > 0 {
		fmt.Fprintf(&sb, "   [node %d]", r.NodeID)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "  environment: |ρ|=%d", r.EnvSize)
	if len(r.EnvRibs) > 0 {
		fmt.Fprintf(&sb, "  ribs: %s", strings.Join(r.EnvRibs, " "))
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "  store: %d cells\n", r.StoreCells)
	fmt.Fprintf(&sb, "  continuation: depth %d, space(κ)=%d", r.FramesTotal, r.ContCharge)
	if r.FramesTotal > len(r.Frames) {
		fmt.Fprintf(&sb, " (showing top %d frames)", len(r.Frames))
	}
	sb.WriteByte('\n')
	for i, f := range r.Frames {
		fmt.Fprintf(&sb, "    #%-3d %-12s charge=%-4d", i, f.Kind, f.Charge)
		if f.EnvSize > 0 {
			fmt.Fprintf(&sb, " |ρ|=%-3d", f.EnvSize)
		}
		if len(f.Ribs) > 0 {
			fmt.Fprintf(&sb, " ribs: %s", strings.Join(f.Ribs, " "))
		}
		if f.Pending != "" {
			fmt.Fprintf(&sb, " pending: %s", f.Pending)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
