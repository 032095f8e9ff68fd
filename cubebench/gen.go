package main

import (
	"fmt"
	"math/rand"
	"sort"

	"cube/internal/core"
)

// size is one operand shape: metrics × call nodes × threads.
type size struct{ metrics, cnodes, threads int }

func (s size) String() string { return fmt.Sprintf("%dx%dx%d", s.metrics, s.cnodes, s.threads) }

var (
	medium = size{32, 256, 32} // ~1.2 MB of CUBE XML
	large  = size{64, 512, 64} // ~8.6 MB of CUBE XML
)

// synthetic builds an experiment of the shape the repository's operator
// benchmarks use (synthetic in bench_test.go): a binary metric tree, a
// binary call tree, sz.threads single-threaded ranks on 4 nodes, and a
// severity on every third (metric, call node, thread) tuple. shift moves
// every value and, unless it is a multiple of 3, renames callees (so the
// call trees no longer match); seed draws the fractional part of each
// value, so two seeds give the same structure with different severities.
func synthetic(sz size, shift int, seed int64) *core.Experiment {
	r := rand.New(rand.NewSource(seed*1009 + int64(shift)))
	e := core.New(fmt.Sprintf("synth-%s-%d-%d", sz, shift, seed))
	root := e.NewMetric("Time", core.Seconds, "")
	ms := []*core.Metric{root}
	for i := 1; i < sz.metrics; i++ {
		ms = append(ms, ms[i/2].NewChild(fmt.Sprintf("m%d", i), ""))
	}
	mainR := e.NewRegion("main", "app", 0, 0)
	cs := []*core.CallNode{e.NewCallRoot(e.NewCallSite("app", 0, mainR))}
	for i := 1; i < sz.cnodes; i++ {
		reg := e.NewRegion(fmt.Sprintf("f%d", i+shift%3), "app", i, 0)
		cs = append(cs, cs[i/2].NewChild(e.NewCallSite("app", i, reg)))
	}
	e.Invalidate()
	ths := e.SingleThreadedSystem("mach", 4, sz.threads)
	for mi, m := range ms {
		for ci, c := range cs {
			for ti, th := range ths {
				if (mi+ci+ti)%3 == 0 {
					frac := float64(r.Intn(4)) / 4
					e.SetSeverity(m, c, th, float64(mi*ci+ti+shift)+0.5+frac)
				}
			}
		}
	}
	// Compact and digest now, as the server's parse cache does before it
	// shares a master: concurrent reference computations then only read.
	e.CompactSeverities()
	e.MetaDigest()
	return e
}

// cell addresses one severity tuple by metadata index.
type cell struct{ m, c, t int }

// freshOperand turns one experiment into a stream of distinct operands:
// step i restores the tuple the previous step changed and gives the tuple
// drawn for i a value no other step uses, so every step's encoding — and
// with it the content digest the server's parse cache keys on — is new,
// while the metadata stays that of the original experiment. What step i
// changes depends only on the seed and i, so a replay can repeat any
// stretch of the sequence.
type freshOperand struct {
	e    *core.Experiment
	seed int64
	prev *cell
	orig float64 // value of prev before it was changed
}

func newFreshOperand(e *core.Experiment, seed int64) *freshOperand {
	return &freshOperand{e: e, seed: seed}
}

// step applies change i and returns the tuple it changed with its new
// value. The experiment is left compacted, the form a parsed run has.
func (f *freshOperand) step(i int) (cell, float64) {
	ms, cs, ts := f.e.Metrics(), f.e.CallNodes(), f.e.Threads()
	if f.prev != nil {
		p := f.prev
		f.e.SetSeverity(ms[p.m], cs[p.c], ts[p.t], f.orig)
	}
	r := rand.New(rand.NewSource(f.seed*7919 + int64(i)))
	k := cell{r.Intn(len(ms)), r.Intn(len(cs)), r.Intn(len(ts))}
	f.orig = f.e.Severity(ms[k.m], cs[k.c], ts[k.t])
	v := 1e6 + float64(i) + 0.25
	f.e.SetSeverity(ms[k.m], cs[k.c], ts[k.t], v)
	f.e.CompactSeverities()
	f.prev = &k
	return k, v
}

// subsetSequence lists every k-subset of {0..n-1} except skip, in an order
// shuffled by seed. A run takes subsets from the front and never wraps, so
// no subset repeats within a run.
func subsetSequence(n, k int, skip []int, seed int64) [][]int {
	var all [][]int
	cur := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			s := append([]int(nil), cur...)
			if !sameSet(s, skip) {
				all = append(all, s)
			}
			return
		}
		for i := start; i < n; i++ {
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	x, y := append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(x)
	sort.Ints(y)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
