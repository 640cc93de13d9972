package env

import (
	"math/rand"
	"testing"
)

// randomEnvs builds a forest of environments over a small identifier pool:
// each extends an earlier one (or the empty environment) with one to three
// bindings, so chains share suffixes, repeat (identifier, location) pairs,
// and — when an identifier recurs — shadow.
func randomEnvs(rng *rand.Rand, n int) []Env {
	pool := syms("a", "b", "c", "d", "e", "f")
	envs := []Env{Empty()}
	for len(envs) < n {
		parent := envs[rng.Intn(len(envs))]
		k := 1 + rng.Intn(3)
		ss := make([]Symbol, k)
		ls := make([]Location, k)
		for i := range ss {
			ss[i] = pool[rng.Intn(len(pool))]
			ls[i] = Location(rng.Intn(4))
		}
		envs = append(envs, parent.ExtendSyms(ss, ls))
	}
	return envs
}

// unionSize is |∪ graph(e)| over a multiset of environments, computed from
// scratch with EachSym.
func unionSize(refs map[int]int, envs []Env) int {
	seen := map[bindingPair]bool{}
	for i, n := range refs {
		if n > 0 {
			envs[i].EachSym(func(s Symbol, l Location) { seen[bindingPair{s, l}] = true })
		}
	}
	return len(seen)
}

// TestBindingCountsMatchUnion drives random acquire/release sequences over
// shared, shadowed and repeated chains and checks Len against the union
// recomputed from scratch after every operation, then that releasing every
// reference empties the account.
func TestBindingCountsMatchUnion(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		envs := randomEnvs(rng, 40)
		shadowed := 0
		for _, e := range envs[1:] {
			if e.r.entries != e.r.size {
				shadowed++
			}
		}
		if shadowed == 0 || shadowed == len(envs)-1 {
			t.Fatalf("seed %d: %d of %d chains shadowed; want both kinds", seed, shadowed, len(envs)-1)
		}
		b := NewBindingCounts()
		refs := map[int]int{}
		for op := 0; op < 400; op++ {
			i := rng.Intn(len(envs))
			if refs[i] > 0 && rng.Intn(2) == 0 {
				b.Release(envs[i])
				refs[i]--
			} else {
				b.Acquire(envs[i])
				refs[i]++
			}
			if got, want := b.Len(), unionSize(refs, envs); got != want {
				t.Fatalf("seed %d op %d: Len %d, union %d", seed, op, got, want)
			}
		}
		for i, n := range refs {
			for ; n > 0; n-- {
				b.Release(envs[i])
			}
		}
		if b.Len() != 0 || b.Tracked() != 0 {
			t.Fatalf("seed %d: account not empty after releasing everything: %d pairs, %d tracked", seed, b.Len(), b.Tracked())
		}
	}
}

func TestBindingCountsReleaseUnacquiredPanics(t *testing.T) {
	e := Empty().ExtendSyms(syms("x"), []Location{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBindingCounts().Release(e)
}
