package env

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestRibFitsItsSizeClass pins the rib at 80 bytes: the stamp shares the
// size class the rib had without it, so stamping ribs costs no allocation.
func TestRibFitsItsSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size class checked on 64-bit platforms")
	}
	if got := unsafe.Sizeof(rib{}); got != 80 {
		t.Fatalf("rib is %d bytes, want 80", got)
	}
}

// stampForest builds environments whose every entry has its own location,
// so a hidden binding's location cannot be mistaken for a visible one. Each
// environment extends an earlier one (shared suffixes), draws identifiers
// from a small pool (shadowing, and repeats within one rib), or restricts an
// earlier one (RestrictSyms ribs, which later extensions may build on).
func stampForest(rng *rand.Rand, n int) []Env {
	pool := syms("a", "b", "c", "d", "e", "f", "g")
	next := Location(0)
	envs := []Env{Empty()}
	for len(envs) < n {
		parent := envs[rng.Intn(len(envs))]
		if rng.Intn(5) == 0 {
			keep := make([]Symbol, 1+rng.Intn(4))
			for i := range keep {
				keep[i] = pool[rng.Intn(len(pool))]
			}
			envs = append(envs, parent.RestrictSyms(keep))
			continue
		}
		k := 1 + rng.Intn(3)
		ss := make([]Symbol, k)
		ls := make([]Location, k)
		for i := range ss {
			ss[i] = pool[rng.Intn(len(pool))]
			ls[i] = next
			next++
		}
		envs = append(envs, parent.ExtendSyms(ss, ls))
	}
	return envs
}

// TestEpochDeliversExactlyTheUnion checks the stamped walk against EachSym:
// under one epoch, any multiset of chains delivers exactly the union of their
// visible locations (a location may come twice, from a rib a shadowed walk
// passed without stamping), a second pass under the same epoch delivers
// nothing, and Unstamped still lists every chain in full. Every trial draws a fresh epoch over the same forest, so stamps
// left by earlier trials must not hide anything from later ones.
func TestEpochDeliversExactlyTheUnion(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		envs := stampForest(rng, 60)
		shadowed := 0
		for _, e := range envs[1:] {
			if e.r != nil && e.r.entries != e.r.size {
				shadowed++
			}
		}
		if shadowed == 0 {
			t.Fatalf("seed %d: no shadowed chain in the forest", seed)
		}
		for trial := 0; trial < 20; trial++ {
			pick := make([]Env, 1+rng.Intn(12))
			for i := range pick {
				pick[i] = envs[rng.Intn(len(envs))]
			}
			want := map[Location]bool{}
			for _, e := range pick {
				e.EachSym(func(_ Symbol, l Location) { want[l] = true })
			}
			ep := NewEpoch()
			var got []Location
			for _, e := range pick {
				got = e.AppendLocations(ep, got)
			}
			seen := map[Location]bool{}
			for _, l := range got {
				if !want[l] {
					t.Fatalf("seed %d trial %d: delivered %d, which no chain binds visibly", seed, trial, l)
				}
				seen[l] = true
			}
			if len(seen) != len(want) {
				t.Fatalf("seed %d trial %d: delivered %d locations, want %d", seed, trial, len(seen), len(want))
			}
			for _, e := range pick {
				if again := e.AppendLocations(ep, nil); len(again) != 0 {
					t.Fatalf("seed %d trial %d: second pass under one epoch delivered %v", seed, trial, again)
				}
				// Unstamped ignores the stamps just left: every call lists
				// the visible bindings in full, as EachSym does.
				var plain []Location
				e.EachSym(func(_ Symbol, l Location) { plain = append(plain, l) })
				if got := e.AppendLocations(Unstamped, nil); !slices.Equal(got, plain) {
					t.Fatalf("seed %d trial %d: Unstamped delivered %v, EachSym %v", seed, trial, got, plain)
				}
			}
		}
	}
}
