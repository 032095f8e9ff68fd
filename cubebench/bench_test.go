package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"math"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"cube/client"
	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/promtext"
)

var tiny = size{4, 16, 4}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if p := percentile(xs, 50); p != 50 {
		t.Errorf("p50 = %v, want 50", p)
	}
	if p := percentile(xs, 90); p != 90 {
		t.Errorf("p90 = %v, want 90", p)
	}
	if p := percentile([]float64{7}, 90); p != 7 {
		t.Errorf("p90 of one sample = %v, want 7", p)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// A p90 is reported only with at least ten samples above it: 100
// distinct samples have exactly ten, 99 have nine.
func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	if !tailOK(seq(100)) {
		t.Error("100 samples rejected")
	}
	if tailOK(seq(99)) {
		t.Error("99 samples accepted")
	}
	// Ties at the percentile do not count as above it.
	flat := seq(100)
	for i := 85; i < 100; i++ {
		flat[i] = 1000
	}
	if tailOK(flat) {
		t.Error("samples tied with p90 counted as above it")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{5, 1}, 0, 3, 6}, // Python extrapolates past two values
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSubsetSequenceNeverRepeats(t *testing.T) {
	seq := subsetSequence(seriesRuns, len(seriesBaseline), seriesBaseline, 7)
	if want := 10626 - 1; len(seq) != want { // C(24,4) minus the baseline
		t.Fatalf("%d subsets, want %d", len(seq), want)
	}
	seen := map[[4]int]bool{}
	for _, s := range seq {
		if sameSet(s, seriesBaseline) {
			t.Fatalf("baseline %v in the sequence", s)
		}
		var k [4]int
		copy(k[:], s)
		if seen[k] {
			t.Fatalf("subset %v repeats", s)
		}
		seen[k] = true
	}
	again := subsetSequence(seriesRuns, len(seriesBaseline), seriesBaseline, 7)
	other := subsetSequence(seriesRuns, len(seriesBaseline), seriesBaseline, 8)
	same, differ := true, false
	for i := range seq {
		same = same && sameSet(seq[i], again[i])
		differ = differ || !sameSet(seq[i], other[i])
	}
	if !same || !differ {
		t.Errorf("sequence not fixed by the seed (same seed equal: %v, other seed differs: %v)", same, differ)
	}
}

// The subset sequence outlasts the longest run BENCHMARK.json allows —
// the whole warm-up plus a timed phase stretched to its 3× limit — at
// 100 requests per second, about twice the rate two clients reach on
// 2 vCPUs today. A faster server must show as a gain, not run out.
func TestSeriesSubsetsOutlastTheRun(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &spec); err != nil || spec.RunSeconds < 1 {
		t.Fatalf("run_seconds of BENCHMARK.json: %d, %v", spec.RunSeconds, err)
	}
	const rate = 100
	need := seriesWarmRounds*seriesWarmBatch + 3*spec.RunSeconds*rate
	if n := len(subsetSequence(seriesRuns, len(seriesBaseline), seriesBaseline, 1)); n < need {
		t.Errorf("%d subsets for a run that may take %d", n, need)
	}
}

func encodeDigest(t *testing.T, e *core.Experiment) [sha256.Size]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cubexml.Write(&buf, e); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// Every step of the fresh-operand generator must change the bytes the
// server's parse cache keys on, keep the metadata, and depend only on the
// seed and the step index.
func TestFreshOperandChangesDigestEveryRequest(t *testing.T) {
	e := synthetic(tiny, 3, 1)
	meta := e.MetaDigest()
	replay := newFreshOperand(e.Clone(), 1)
	f := newFreshOperand(e, 1)
	seen := map[[sha256.Size]byte]int{encodeDigest(t, e): -1}
	for i := 0; i < 200; i++ {
		f.step(i)
		d := encodeDigest(t, e)
		if j, dup := seen[d]; dup {
			t.Fatalf("step %d encodes like step %d", i, j)
		}
		seen[d] = i
		if e.MetaDigest() != meta {
			t.Fatalf("step %d changed the metadata", i)
		}
	}
	replay.step(199)
	if encodeDigest(t, replay.e) != encodeDigest(t, e) {
		t.Error("replaying step 199 alone does not reproduce it")
	}
}

func perturb(e *core.Experiment) *core.Experiment {
	p := e.Clone()
	m, c, th := p.Metrics()[1], p.CallNodes()[2], p.Threads()[0]
	p.SetSeverity(m, c, th, p.Severity(m, c, th)+1e-3)
	return p
}

// The correctness gate accepts the true result and rejects one severity
// off by 1e-3, on every workload's check.
func TestCheckRejectsPerturbedResult(t *testing.T) {
	ri := &regressInline{seed: 1, sz: tiny}
	if err := ri.inputs(); err != nil {
		t.Fatal(err)
	}
	req, err := ri.prepare(5)
	if err != nil {
		t.Fatal(err)
	}
	good, err := core.Difference(ri.after, ri.base, nil)
	if err != nil {
		t.Fatal(err)
	}
	dl := &digestLarge{ref: good}
	dreq, _ := dl.prepare(0)

	se := &seriesExpr{seed: 1, sz: tiny}
	if err := se.inputs(); err != nil {
		t.Fatal(err)
	}
	for range se.runs {
		se.digests = append(se.digests, "00")
	}
	sreq, err := se.prepare(3)
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := core.Mean(nil, se.pick(se.subsets[3])...)
	sgood, _ := core.Difference(mean, se.meanBase, nil)

	for name, c := range map[string]struct {
		r    *request
		good *core.Experiment
	}{"regress-inline": {req, good}, "digest-large": {dreq, good}, "series-expr": {sreq, sgood}} {
		if err := c.r.check(c.good.Clone(), client.ExprStats{}); err != nil {
			t.Errorf("%s: true result rejected: %v", name, err)
		}
		if err := c.r.check(perturb(c.good), client.ExprStats{}); !errors.Is(err, errMismatch) {
			t.Errorf("%s: perturbed result: got %v, want %v", name, err, errMismatch)
		}
	}
}

func counters(kv ...any) promtext.Metrics {
	m := promtext.Metrics{}
	for i := 0; i < len(kv); i += 2 {
		name := kv[i].(string)
		m[name] = []promtext.Sample{{Name: name, Labels: map[string]string{}, Value: float64(kv[i+1].(int))}}
	}
	return m
}

// Each mechanism gate names the way a run missed its path.
func TestMechanismGates(t *testing.T) {
	ri := &regressInline{}
	if err := ri.gate(counters("cube_parse_cache_misses_total", 10, "cube_parse_cache_hits_total", 10), 10, 0); err != nil {
		t.Errorf("regress-inline on its path: %v", err)
	}
	if err := ri.gate(counters("cube_parse_cache_misses_total", 9, "cube_parse_cache_hits_total", 11), 10, 0); !errors.Is(err, errParseMiss) {
		t.Errorf("regress-inline with a hit for a miss: %v", err)
	}
	dl := &digestLarge{}
	if err := dl.gate(counters("cube_store_get_hits_total", 20), 10, 5000); err != nil {
		t.Errorf("digest-large on its path: %v", err)
	}
	if err := dl.gate(counters("cube_parse_cache_misses_total", 1, "cube_store_get_hits_total", 20), 10, 5000); !errors.Is(err, errDigestParsed) {
		t.Errorf("digest-large with a parse: %v", err)
	}
	if err := dl.gate(counters("cube_store_get_hits_total", 20), 10, 10<<20); !errors.Is(err, errDigestUploaded) {
		t.Errorf("digest-large with an upload: %v", err)
	}
	se := &seriesExpr{}
	if err := se.gate(counters("cube_expr_cache_hits_total", 10), 10, 0); err != nil {
		t.Errorf("series-expr on its path: %v", err)
	}
	if err := se.gate(counters("cube_expr_cache_hits_total", 9), 10, 0); !errors.Is(err, errBaselineHit) {
		t.Errorf("series-expr with a baseline miss: %v", err)
	}
	se.cached.Store(1)
	if err := se.gate(counters("cube_expr_cache_hits_total", 10), 10, 0); !errors.Is(err, errRootCached) {
		t.Errorf("series-expr with a cached root: %v", err)
	}
}

// Each workload, at a tiny size, runs through the real stack: set-up, a
// closed loop whose responses all pass their checks, the mechanism gate,
// and a replay whose spans cover the layers on its path.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		w      workload
		layers []string
	}{
		{&regressInline{seed: 1, sz: tiny}, []string{"client.encode", "cubexml.read", "core.op", "cubexml.write", "client.decode"}},
		{&digestLarge{seed: 1, sz: tiny}, []string{"store.get", "core.op", "cubexml.write", "client.decode"}},
		{&seriesExpr{seed: 1, sz: tiny}, []string{"store.get", "expr.eval", "core.op", "cubexml.write", "client.decode"}},
	} {
		ctx := context.Background()
		s, err := startStack(t.TempDir(), tc.w.clients())
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		if err := tc.w.inputs(); err != nil {
			t.Fatal(err)
		}
		check, err := tc.w.setup(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if check != nil {
			if err := check(); err != nil {
				t.Fatalf("%T: set-up: %v", tc.w, err)
			}
		}
		var next atomic.Int64
		if err := runUntimed(ctx, s, tc.w, &next, 2); err != nil {
			t.Fatal(err)
		}
		before, err := s.scrape(ctx)
		if err != nil {
			t.Fatal(err)
		}
		s.reqBytes.Store(0)
		p, err := loop(ctx, s, tc.w, &next, func(p *phase, _ time.Duration) bool { return p.attempted >= 12 })
		if err != nil || p.firstErr != nil {
			t.Fatalf("%T: loop: %v, %v", tc.w, err, p.firstErr)
		}
		after, err := s.scrape(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.w.gate(promtext.Delta(before, after), p.attempted, s.reqBytes.Load()); err != nil {
			t.Errorf("%T: gate: %v", tc.w, err)
		}
		rec := newRecorder()
		if err := tc.w.replaySetup(ctx, s, t.TempDir(), rec); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			rec.req = k
			if err := tc.w.replay(ctx, rec, int(next.Load())+k); err != nil {
				t.Fatalf("%T: replay: %v", tc.w, err)
			}
		}
		self := rec.selfTimes()
		for _, layer := range tc.layers {
			if _, ok := self[2][layer]; !ok {
				t.Errorf("%T: replay has no %s span", tc.w, layer)
			}
		}
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}
}
