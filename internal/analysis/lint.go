package analysis

// This file packages the space-leak analyzer as a linter: one report per
// program, with a human rendering (tailscan -lint) and stable JSON
// (tailscan -lint -json, pinned by a golden test). A leak is "confirmed"
// when the analyzer found a concrete retention mechanism — the differential
// grid in internal/experiments checks that every confirmed leak's machine
// pair really separates on the meters.

import (
	"fmt"
	"strings"
)

// LintReport is the per-program linter output.
type LintReport struct {
	Program string `json:"program"`
	*LeakReport
}

// LintSource expands and lints program text.
func LintSource(name, src string) (*LintReport, error) {
	rep, err := AnalyzeLeaksSource(src)
	if err != nil {
		return nil, err
	}
	return &LintReport{Program: name, LeakReport: rep}, nil
}

// Confirmed reports whether the linter found at least one concrete leak.
func (r *LintReport) Confirmed() bool { return len(r.Leaks) > 0 }

// Render formats the report for terminal output.
func (r *LintReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: control %s", r.Program, r.Control)
	switch n := len(r.Leaks); n {
	case 0:
		b.WriteString("; no space leaks found\n")
	case 1:
		b.WriteString("; 1 space leak\n")
	default:
		fmt.Fprintf(&b, "; %d space leaks\n", n)
	}
	for _, l := range r.Leaks {
		fmt.Fprintf(&b, "  [%s] node %d: %s\n", l.Kind, l.NodeID, l.Expr)
		fmt.Fprintf(&b, "      %s (separates %s)\n", l.Detail, l.Pair)
	}
	fmt.Fprintf(&b, "  predicted machine ordering: %s\n", r.Ordering)
	for _, u := range r.Unresolved {
		pos := "non-tail"
		if u.Tail {
			pos = "tail"
		}
		fmt.Fprintf(&b, "  unresolved %s call (node %d, in %s): %s\n      %s\n", pos, u.NodeID, u.Host, u.Expr, u.Reason)
	}
	for _, lc := range r.Lambdas {
		if len(lc.Dead) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  closure %s (node %d) captures dead: %s (free: %s)\n",
			lc.Label, lc.NodeID, strings.Join(lc.Dead, " "), strings.Join(lc.Free, " "))
	}
	return b.String()
}
