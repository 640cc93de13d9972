package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tailspace/internal/core"
	"tailspace/internal/corpus"
)

// TestOpListSeeded pins the seed contract: the same seed yields a
// byte-identical op list, and a different seed a different one.
func TestOpListSeeded(t *testing.T) {
	for _, w := range []string{"interp", "sweep", "serve"} {
		a, err := opList(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := opList(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: seed 7 gave two different op lists", w)
		}
		c, err := opList(w, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w)
		}
	}
	if _, err := opList("nope", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestRoundCompositionIgnoresSeed pins what keeps the timing metrics
// comparable across seeds: a round covers the same programs, machines,
// rungs and hit/miss counts whatever the seed draws.
func TestRoundCompositionIgnoresSeed(t *testing.T) {
	progs := sweepPrograms()
	composition := func(seed int64) (interp, sweep, serve []string) {
		rng := rand.New(rand.NewSource(seed))
		for _, op := range interpRound(rng) {
			interp = append(interp, op.Program.Name+" "+op.Machine.Name)
		}
		for _, op := range sweepRound(rng, progs) {
			sweep = append(sweep, fmt.Sprintf("%s %d", op.Program.Name, op.N))
		}
		for _, snd := range serveRound(rng, 3, progs) {
			serve = append(serve, fmt.Sprintf("%s first=%t", snd.Req.Kind, snd.First))
		}
		sort.Strings(interp)
		sort.Strings(sweep)
		sort.Strings(serve)
		return interp, sweep, serve
	}
	i1, w1, s1 := composition(1)
	i2, w2, s2 := composition(2)
	for _, c := range []struct {
		name string
		a, b []string
	}{{"interp", i1, i2}, {"sweep", w1, w2}, {"serve", s1, s2}} {
		if fmt.Sprint(c.a) != fmt.Sprint(c.b) {
			t.Errorf("%s: round composition depends on the seed", c.name)
		}
	}
	if len(i1) != len(corpus.All())*len(core.AllVariants)-1 {
		t.Errorf("interp round has %d ops, want every corpus program on all nine machines but one", len(i1))
	}
	for _, p := range progs {
		if len(p.Ladder) == 0 {
			t.Errorf("sweep program %s has no ladder", p.Name)
		}
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{5, 8}, {0, 10}}, 10},
		{[][2]int64{{0, 4}, {2, 6}, {10, 12}}, 8},
	} {
		if got := covered(c.iv); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

// opList renders the first rounds of a workload's op stream, one op a line;
// the seed self-test compares these renderings.
func opList(workload string, seed int64, rounds int) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	progs := sweepPrograms()
	var sb strings.Builder
	for r := 0; r < rounds; r++ {
		switch workload {
		case "interp":
			for _, op := range interpRound(rng) {
				fmt.Fprintln(&sb, op)
			}
		case "sweep":
			for _, op := range sweepRound(rng, progs) {
				fmt.Fprintln(&sb, op)
			}
		case "serve":
			for _, op := range serveRound(rng, r, progs) {
				fmt.Fprintln(&sb, op)
			}
		default:
			return "", fmt.Errorf("unknown workload %q", workload)
		}
	}
	return sb.String(), nil
}
