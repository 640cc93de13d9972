package core

import "testing"

// hiddenBindingPrograms each keep a shadowed environment live while the
// binding it hides is the only path to some cells, so rooting a hidden
// binding retains garbage and moves the peaks and the collection counts.
var hiddenBindingPrograms = []struct{ name, src, answer string }{
	// A let-shadowed x: the outer pair (and its vector) is garbage once the
	// inner x is bound, while the push frame around count saves the chain.
	{"let-shadowed-pair", `
(define (count i acc) (if (= i 0) acc (count (- i 1) (+ acc 1))))
(define (f n)
  (let ((x (cons (make-vector n 0) n)))
    (let ((x (cdr x)))
      (+ 1 (count 20 x)))))
(f 30)`, "51"},
	// A parameter shadowed by its own length in a non-tail recursion: every
	// frame's chain hides the vector it was called with.
	{"shadowed-vector-param", `
(define (g v)
  (let ((v (vector-length v)))
    (if (= v 0) 0 (+ 1 (g (make-vector (- v 1) v))))))
(g (make-vector 12 0))`, "12"},
	// A parameter named list hides ρ0's own entry, which the program still
	// calls through the unshadowed global environment.
	{"param-named-list", `
(define (sum list) (if (null? list) 0 (+ (car list) (sum (cdr list)))))
(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
(+ (sum (build 10)) (length (list (sum (list 1 2 3)) 4)))`, "57"},
	// Stored closures capture a parameter that shadows a vector: the store
	// reaches the shadowed chain through each closure's environment.
	{"closure-captures-shadowing-param", `
(define (keep x) ((lambda (x) (lambda () x)) (vector-length x)))
(define (make i) (if (= i 0) '() (cons (keep (make-vector (* 3 i) i)) (make (- i 1)))))
(define thunks (make 6))
(define (force-all ts) (if (null? ts) 0 (+ ((car ts)) (force-all (cdr ts)))))
(force-all thunks)`, "63"},
	// A named let whose loop variables rebind the procedure's own parameters.
	{"named-let-rebinds", `
(define (run x n)
  (let loop ((x (vector-length x)) (n n))
    (if (= n 0) x (+ 1 (loop (+ x 1) (- n 1))))))
(run (make-vector 30 0) 10)`, "50"},
}

// TestHiddenBindingsArenaMatchesMapStore runs programs whose live
// environments hide bindings on the arena store, whose collector walks ribs
// once per collection with epoch stamps, and on the map store, which builds
// plain roots by enumerating every environment in full. Answers, peaks and
// collection totals must agree on every machine under both argument orders:
// a stamped walk that roots a hidden binding, or skips a visible one, fails
// here even where the corpus happens not to notice.
func TestHiddenBindingsArenaMatchesMapStore(t *testing.T) {
	for _, v := range AllVariants {
		for _, order := range []ArgOrder{LeftToRight, RightToLeft} {
			for _, p := range hiddenBindingPrograms {
				run := func(mapStore bool) Result {
					res, err := RunProgram(p.src, Options{
						Variant: v, Order: order, Measure: true, MapStore: mapStore,
					})
					if err != nil {
						t.Fatalf("%s: %v", p.name, err)
					}
					return res
				}
				arena, ref := run(false), run(true)
				if arena.Err != nil || arena.Answer != p.answer {
					t.Errorf("%s [%s order=%d]: answer %q err %v, want %s", p.name, v, order, arena.Answer, arena.Err, p.answer)
					continue
				}
				if diff := diffStoreRuns(arena, ref); diff != "" {
					t.Errorf("%s [%s order=%d]: arena vs map store: %s", p.name, v, order, diff)
				}
			}
		}
	}
}
