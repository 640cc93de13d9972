// Quickstart: compile and run a Scheme program under the properly tail
// recursive reference implementation, then measure the very property the
// paper formalizes — that an iterative computation described by a
// syntactically recursive procedure runs in constant space (Definition 5).
package main

import (
	"fmt"
	"log"

	"tailspace"
)

func main() {
	// 1. Run a program and read its observable answer (Definition 11).
	res, err := tailspace.Run(`
		(define (fact n) (if (zero? n) 1 (* n (fact (- n 1)))))
		(fact 30)`, tailspace.Options{Variant: tailspace.Tail})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("(fact 30) =", res.Answer)

	// 2. Sample the space consumption function S_tail(P, D) of Definition
	//    23: apply a program (a procedure of one argument) to inputs of
	//    growing size and watch the peak stay flat.
	const loop = "(define (f n) (if (zero? n) 0 (f (- n 1))))"
	fmt.Println("\nS_tail of the countdown loop (Figure 5 machine):")
	for _, n := range []int{10, 100, 1000} {
		r, err := tailspace.Apply(loop, fmt.Sprintf("(quote %d)", n), tailspace.Options{
			Variant:   tailspace.Tail,
			Measure:   true,
			CostModel: "fixnum",
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  n=%-5d  S=%d words\n", n, r.SpaceFlat)
	}

	// 3. The same loop under the improperly tail recursive machine of
	//    Section 8 leaks one continuation per call.
	fmt.Println("\nS_gc of the same loop (Section 8 machine):")
	for _, n := range []int{10, 100, 1000} {
		r, err := tailspace.Apply(loop, fmt.Sprintf("(quote %d)", n), tailspace.Options{
			Variant:   tailspace.GC,
			Measure:   true,
			CostModel: "fixnum",
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  n=%-5d  S=%d words\n", n, r.SpaceFlat)
	}

	proper, err := tailspace.IsProperlyTailRecursive(tailspace.Tail)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nZ_tail properly tail recursive:", proper)
}
