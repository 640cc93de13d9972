// CPS: Section 4 of the paper notes that "it is perfectly feasible to write
// large programs in which no procedure ever returns, and all calls are tail
// calls. ... Proper tail recursion guarantees that implementations will use
// only a bounded amount of storage to implement all of the calls."
//
// This example writes a small state machine in pure continuation-passing
// style, verifies with the Figure 2 classifier that every call really is a
// tail call, and then shows that the control storage stays bounded under
// Z_tail no matter how long the machine runs — while the improper machines
// leak a frame per step.
package main

import (
	"fmt"
	"log"

	"tailspace"
)

// A CPS-style token counter: states are procedures, transitions are tail
// calls, and the "return" is a tail call to the done continuation.
const machine = `
(define (run n)
  (define (done count) count)
  (define (state-even n count k)
    (if (zero? n)
        (k count)
        (state-odd (- n 1) count k)))
  (define (state-odd n count k)
    (if (zero? n)
        (k count)
        (state-even (- n 1) (+ count 1) k)))
  (state-even n 0 done))`

func main() {
	stats, err := tailspace.AnalyzeTailCalls(machine + "\nrun")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static shape: %d calls, %d tail, %d non-tail (the non-tail ones are the arithmetic)\n",
		stats.Calls, stats.TailCalls, stats.NonTail)

	fmt.Println("\ncontrol space of the CPS machine:")
	fmt.Printf("%8s %14s %14s %14s\n", "n", "S_tail", "S_gc", "S_stack")
	for _, n := range []int{16, 64, 256, 1024} {
		row := fmt.Sprintf("%8d", n)
		for _, v := range []tailspace.Variant{tailspace.Tail, tailspace.GC, tailspace.Stack} {
			res, err := tailspace.Apply(machine, fmt.Sprintf("(quote %d)", n), tailspace.Options{
				Variant:   v,
				Measure:   true,
				CostModel: "fixnum",
			})
			if err != nil {
				log.Fatalf("[%s] %v", v, err)
			}
			row += fmt.Sprintf(" %14d", res.SpaceFlat)
		}
		fmt.Println(row)
	}
	fmt.Println("\nZ_tail is flat; the improper machines grow linearly with the number of calls.")
}
