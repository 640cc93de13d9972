package value

import (
	"math/rand"
	"slices"
	"testing"

	"tailspace/internal/env"
)

// TestFramePartsMatchContLocations drives the collector's frame-parts cache
// through random pushes, pops, top replacements and jumps to unrelated
// chains, as transitions, escapes and MTA compression move κ, and checks
// after every move that it roots exactly what ContLocations finds and
// still mirrors κ bottom first.
func TestFramePartsMatchContLocations(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	next := env.Location(1)
	fresh := func() env.Location { next++; return next }
	frame := func(k Cont) Cont {
		rho := env.Empty().ExtendSyms(env.InternAll([]string{"a"}), []env.Location{fresh()})
		switch r.Intn(5) {
		case 0:
			return &Return{Env: rho, K: k}
		case 1:
			return &ReturnStack{Del: []env.Location{fresh()}, Env: rho, K: k}
		case 2:
			return &Push{Done: []Value{Pair{CarLoc: fresh(), CdrLoc: fresh()}}, Env: rho, K: k}
		case 3:
			return &MonChk{Val: Vector{ElemLocs: []env.Location{fresh()}}, Rest: []Pending{{Ctc: Escape{Tag: fresh(), K: k}}}, K: k}
		default:
			return &Select{Env: rho, K: k}
		}
	}
	var c frameParts
	var k Cont = Halt{}
	var saved []Cont
	for step := 0; step < 2000; step++ {
		switch op := r.Intn(10); {
		case op < 4:
			k = frame(k)
		case op < 7:
			if k.Next() != nil {
				k = k.Next()
			}
		case op < 9:
			if k.Next() != nil {
				k = frame(k.Next())
			}
		default:
			saved = append(saved, k)
			k = saved[r.Intn(len(saved))]
			for range r.Intn(4) {
				k = frame(k)
			}
		}
		c.sync(k)
		got := c.appendRoots(env.Unstamped, nil)
		want := ContLocations(k, env.Unstamped, nil)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: cached roots %v, want %v", step, got, want)
		}
		i := len(c.fs) - 1
		for f := k; f != nil; f = f.Next() {
			if i < 0 || c.fs[i].k != f {
				t.Fatalf("step %d: the cache does not mirror κ at depth %d", step, len(c.fs)-1-i)
			}
			i--
		}
		if i != -1 {
			t.Fatalf("step %d: the cache holds %d frames below halt", step, i+1)
		}
	}
}
