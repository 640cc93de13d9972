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
	switch x := k.(type) {
	case nil:
		return nil
	case value.Halt:
		return x
	case *value.Return:
		inner := CompressReturnChains(x.K)
		if r, ok := inner.(*value.Return); ok {
			return r
		}
		if inner == x.K {
			return x
		}
		return &value.Return{Env: x.Env, K: inner}
	case *value.Select:
		if inner := CompressReturnChains(x.K); inner != x.K {
			return &value.Select{Then: x.Then, Else: x.Else, Env: x.Env, K: inner}
		}
	case *value.Assign:
		if inner := CompressReturnChains(x.K); inner != x.K {
			return &value.Assign{Name: x.Name, Sym: x.Sym, Env: x.Env, K: inner}
		}
	case *value.Push:
		if inner := CompressReturnChains(x.K); inner != x.K {
			return &value.Push{
				Rest: x.Rest, RestIdx: x.RestIdx,
				Done: x.Done, DoneIdx: x.DoneIdx, CurIdx: x.CurIdx,
				Env: x.Env, K: inner,
			}
		}
	case *value.Call:
		if inner := CompressReturnChains(x.K); inner != x.K {
			return &value.Call{Args: x.Args, K: inner}
		}
	case *value.ReturnStack:
		if inner := CompressReturnChains(x.K); inner != x.K {
			return &value.ReturnStack{Del: x.Del, Env: x.Env, K: inner}
		}
	case *value.MonCtc:
		if inner := CompressReturnChains(x.K); inner != x.K {
			return &value.MonCtc{Expr: x.Expr, Label: x.Label, Env: x.Env, K: inner}
		}
	case *value.MonAttach:
		if inner := CompressReturnChains(x.K); inner != x.K {
			return &value.MonAttach{Ctc: x.Ctc, Label: x.Label, K: inner}
		}
	case *value.MonDom:
		if inner := CompressReturnChains(x.K); inner != x.K {
			return &value.MonDom{G: x.G, Args: x.Args, Idx: x.Idx, K: inner}
		}
	case *value.MonCod:
		if inner := CompressReturnChains(x.K); inner != x.K {
			return &value.MonCod{Pend: x.Pend, K: inner}
		}
	case *value.MonChk:
		if inner := CompressReturnChains(x.K); inner != x.K {
			return &value.MonChk{Val: x.Val, Rest: x.Rest, Label: x.Label, K: inner}
		}
	}
	return k
}
