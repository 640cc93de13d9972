// Compilers: the paper's two historical lenses on proper tail recursion,
// side by side.
//
//  1. CPS conversion ([Ste78], cited by the IEEE standard): after the
//     transformation, every call to an unknown procedure is a tail call,
//     so a properly tail recursive machine runs CPS code in bounded
//     control space — and call/cc becomes an ordinary closure.
//  2. The SECD machine ([Ram97], §15): the same compiled code runs on
//     Landin's classic machine (a dump push per call) and on Ramsdell's
//     tail recursive machine (tail calls are gotos); only the latter keeps
//     the dump bounded on iterative programs.
package main

import (
	"fmt"
	"log"

	"tailspace"
)

func main() {
	loop := func(n int) string {
		return fmt.Sprintf("(define (f n) (if (zero? n) 0 (f (- n 1)))) (f %d)", n)
	}

	// --- CPS ---
	fmt.Println("CPS conversion of the countdown loop (Z_tail, flat space):")
	fmt.Printf("%8s %12s %12s\n", "n", "direct S", "CPS S")
	for _, n := range []int{50, 200, 800} {
		direct, err := tailspace.Run(loop(n), tailspace.Options{
			Variant: tailspace.Tail, Measure: true, CostModel: "fixnum",
		})
		if err != nil {
			log.Fatal(err)
		}
		converted, err := tailspace.RunCPS(loop(n), tailspace.Options{
			Variant: tailspace.Tail, Measure: true, CostModel: "fixnum",
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d %12d %12d\n", n, direct.SpaceFlat, converted.SpaceFlat)
	}
	fmt.Println("both columns are flat: CPS conversion preserves O(1).")

	// call/cc compiles away.
	res, err := tailspace.RunCPS("(+ 1 (call/cc (lambda (k) (k 10) 99)))", tailspace.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncall/cc through CPS (no machine support needed): %s\n", res.Answer)

	// --- SECD ---
	fmt.Println("\nSECD machines on the same loop (dump depth / state words):")
	fmt.Printf("%8s %22s %22s\n", "n", "classic", "tail-recursive")
	for _, n := range []int{50, 200, 800} {
		classic, err := tailspace.RunSECD(loop(n), false)
		if err != nil {
			log.Fatal(err)
		}
		tailrec, err := tailspace.RunSECD(loop(n), true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d %12d / %-8d %12d / %-8d\n",
			n, classic.PeakDump, classic.PeakState, tailrec.PeakDump, tailrec.PeakState)
	}
	fmt.Println("Landin's dump grows with every call; Ramsdell's stays constant.")
}
