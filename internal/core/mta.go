package core

import "tailspace/internal/value"

// CompressReturnChains implements the continuation half of Baker's
// Cheney-on-the-MTA collection (Section 14 of the paper): a return
// continuation whose target is another return continuation is dead weight —
// delivering a value to the outer frame restores a dead environment and
// immediately delivers the same value to the inner frame — so the collector
// collapses the chain, keeping only the innermost frame of each run.
//
// The rewrite preserves answers: the only observable difference between
// return:(ρ1, return:(ρ2, κ)) and return:(ρ2, κ) is the dead ρ1, which no
// rule dereferences. What it changes is space: the Z_gc frames that pile up
// under a tail-recursive loop collapse to a single frame at each collection,
// which is exactly why the MTA technique is properly tail recursive under
// the paper's definition while violating every syntactic one.
func CompressReturnChains(k value.Cont) value.Cont {
	if k == nil {
		return nil
	}
	next := k.Next()
	if next == nil {
		return k
	}
	inner := CompressReturnChains(next)
	if _, ok := k.(*value.Return); ok {
		if r, ok := inner.(*value.Return); ok {
			return r
		}
	}
	if inner == next {
		return k
	}
	return k.WithNext(inner)
}
