// Find-leftmost: the worked example of Section 4. Given a predicate, a
// binary tree, and a failure continuation of no arguments, find-leftmost
// searches for the leftmost leaf satisfying the predicate. The paper's
// claim: "a Scheme programmer can tell that the space required by
// find-leftmost is independent of the number of right edges in the tree,
// and is proportional to the maximal number of left edges that occur within
// any directed path from the root to a leaf. If every left child is a leaf,
// then find-leftmost runs in constant space, no matter how large the tree."
//
// This example runs the search over right-spine and left-spine trees of
// identical size and prints the space split, isolating the search cost from
// the (identical) cost of holding the tree itself.
package main

import (
	"fmt"
	"log"

	"tailspace"
)

const defs = `
(define (leaf? t) (number? t))
(define (find-leftmost predicate? tree fail)
  (if (leaf? tree)
      (if (predicate? tree)
          tree
          (fail))
      (let ((continuation
             (lambda ()
               (find-leftmost predicate? (cdr tree) fail))))
        (find-leftmost predicate? (car tree) continuation))))`

func measure(build string, n int) int {
	prog := defs + build + `
(define (f n)
  (find-leftmost (lambda (x) (< x 0)) (build n) (lambda () -1)))`
	res, err := tailspace.Apply(prog, fmt.Sprintf("(quote %d)", n), tailspace.Options{
		Variant:   tailspace.Tail,
		Measure:   true,
		CostModel: "fixnum",
	})
	if err != nil {
		log.Fatal(err)
	}
	if res.Answer != "-1" {
		log.Fatalf("search should exhaust the tree, answered %s", res.Answer)
	}
	return res.SpaceFlat
}

func main() {
	// Every left child is a leaf: n right edges, left depth 1.
	rightSpine := `
(define (build d) (if (zero? d) 0 (cons 1 (build (- d 1)))))`
	// Every right child is a leaf: left depth n.
	leftSpine := `
(define (build d) (if (zero? d) 0 (cons (build (- d 1)) 1)))`

	fmt.Println("find-leftmost under Z_tail (both trees hold n interior nodes):")
	fmt.Printf("%8s %18s %18s %12s\n", "n", "right-spine S", "left-spine S", "difference")
	for _, n := range []int{16, 32, 64, 128} {
		r := measure(rightSpine, n)
		l := measure(leftSpine, n)
		fmt.Printf("%8d %18d %18d %12d\n", n, r, l, l-r)
	}
	fmt.Println("\nThe difference — the chain of failure continuations along left edges —")
	fmt.Println("grows with the left depth; right edges cost nothing beyond the tree itself.")
}
