package cubexml

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"cube/internal/core"
	"cube/internal/synth"
)

// checkWriteEquivalent asserts the fast writer produces byte-identical
// output to the legacy encoding/xml writer, or fails with the same error
// and writes nothing, at the automatic shard count and at forced counts
// of 1, 2, 3, 7 and one more than the experiment's row count.
func checkWriteEquivalent(t *testing.T, name string, e *core.Experiment) {
	t.Helper()
	rows := 0
	e.EachSeverityRow(func(int, int, []float64) bool { rows++; return true })
	checkWriteShards(t, name, e, 0, 1, 2, 3, 7, rows+1)
}

// checkWriteShards is checkWriteEquivalent at the given shard counts; 0
// means the automatic count.
func checkWriteShards(t *testing.T, name string, e *core.Experiment, shards ...int) {
	t.Helper()
	var legacy bytes.Buffer
	errl := writeLegacy(&legacy, e)
	for _, n := range shards {
		var fast bytes.Buffer
		errf := writeFastShards(&fast, e, n)
		switch {
		case (errf == nil) != (errl == nil):
			t.Errorf("%s, %d shards: writers disagree:\nfast:   %v\nlegacy: %v", name, n, errf, errl)
		case errf != nil:
			if errf.Error() != errl.Error() {
				t.Errorf("%s, %d shards: error text differs:\nfast:   %v\nlegacy: %v", name, n, errf, errl)
			}
			if fast.Len() != 0 {
				t.Errorf("%s, %d shards: %d bytes written before the error", name, n, fast.Len())
			}
		case !bytes.Equal(fast.Bytes(), legacy.Bytes()):
			t.Errorf("%s, %d shards: output differs\n%s", name, n, firstDiff(fast.Bytes(), legacy.Bytes()))
		}
	}
}

func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 60
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first difference at byte %d:\nfast:   %q\nlegacy: %q", i, a[lo:min(i+60, len(a))], b[lo:min(i+60, len(b))])
		}
	}
	return fmt.Sprintf("lengths differ: fast %d, legacy %d", len(a), len(b))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestWriteFastMatchesLegacy(t *testing.T) {
	cases := map[string]func() *core.Experiment{
		"empty":  func() *core.Experiment { return core.New("empty") },
		"sample": sample,
		"metadata only": func() *core.Experiment {
			e := sample()
			e.EachSeverity(func(m *core.Metric, c *core.CallNode, th *core.Thread, _ float64) {
				e.SetSeverity(m, c, th, 0)
			})
			return e
		},
		"no threads": func() *core.Experiment {
			e := core.New("no threads")
			e.NewMetric("Time", core.Seconds, "")
			r := e.NewRegion("main", "app", 0, 0)
			e.NewCallRoot(e.NewCallSite("app", 1, r))
			return e
		},
		"no metrics": func() *core.Experiment {
			e := core.New("no metrics")
			r := e.NewRegion("main", "app", 0, 0)
			e.NewCallRoot(e.NewCallSite("app", 1, r))
			e.SingleThreadedSystem("m", 1, 2)
			return e
		},
		"escaping": func() *core.Experiment {
			e := core.New(`title with <tags> & "quotes" and 'apostrophes'`)
			e.Operation = "diff <&>"
			e.Derived = true
			e.Parents = []string{"run <1>", "run & 2"}
			m := e.NewMetric("Time <wall> & more", core.Seconds, "desc with ]]> and <em>")
			r := e.NewRegion("fn<T>", `mod "x" & y`, 1, 2)
			c := e.NewCallRoot(e.NewCallSite(`file "a" <b>`, 3, r))
			th := e.SingleThreadedSystem(`mach & <node>`, 1, 1)
			e.SetSeverity(m, c, th[0], 1.25)
			return e
		},
		"boundary values": func() *core.Experiment {
			e := core.New("boundary")
			m := e.NewMetric("Time", core.Seconds, "")
			r := e.NewRegion("main", "app", 0, 0)
			c := e.NewCallRoot(e.NewCallSite("app", 1, r))
			ths := e.SingleThreadedSystem("m", 1, 8)
			for i, v := range []float64{1e15 + 1, 1e15 - 1, 1e15, -(1e15 + 1), 0.1 + 0.2, math.MaxFloat64, math.SmallestNonzeroFloat64, -42} {
				e.SetSeverity(m, c, ths[i], v)
			}
			return e
		},
		"nan rejected": func() *core.Experiment {
			e := core.New("nan")
			m := e.NewMetric("Time", core.Seconds, "")
			r := e.NewRegion("main", "app", 0, 0)
			c := e.NewCallRoot(e.NewCallSite("app", 1, r))
			th := e.SingleThreadedSystem("m", 1, 1)
			e.SetSeverity(m, c, th[0], math.NaN())
			return e
		},
		"inf rejected": func() *core.Experiment {
			e := core.New("inf")
			m := e.NewMetric("Time", core.Seconds, "")
			r := e.NewRegion("main", "app", 0, 0)
			c := e.NewCallRoot(e.NewCallSite("app", 1, r))
			th := e.SingleThreadedSystem("m", 1, 1)
			e.SetSeverity(m, c, th[0], math.Inf(-1))
			return e
		},
		"topology": func() *core.Experiment {
			e := sample()
			topo, err := core.NewCartesian("grid", 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			e.SetTopology(topo)
			return e
		},
	}
	for name, mk := range cases {
		checkWriteEquivalent(t, name, mk())
	}
}

// TestWriteFastMatchesLegacyQuick differentially fuzzes the two writers
// over random experiments; any divergence in bytes or errors fails.
func TestWriteFastMatchesLegacyQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		checkWriteEquivalent(t, fmt.Sprintf("seed=%d", seed), randomExperiment(r))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWriteFastAfterIngest pins byte equivalence for columnar-backed
// experiments (the state produced by the fast reader), where the fast
// writer streams straight from the sorted block.
func TestWriteFastAfterIngest(t *testing.T) {
	data := []byte(bufString(sample(), t))
	e, err := ReadBytes(context.Background(), data, ReadOptions{Limits: DefaultLimits, Engine: EngineFast})
	if err != nil {
		t.Fatal(err)
	}
	checkWriteEquivalent(t, "ingested sample", e)
}

// benchExperiment builds a deterministic ~2.5 MB document: 24 metrics,
// 120 call nodes, 32 threads, two thirds of tuples non-zero.
func benchExperiment(tb testing.TB) (*core.Experiment, []byte) {
	e := core.New("bench")
	var metrics []*core.Metric
	for i := 0; i < 24; i++ {
		metrics = append(metrics, e.NewMetric(fmt.Sprintf("metric-%02d", i), core.Seconds, ""))
	}
	r := e.NewRegion("main", "app", 0, 0)
	root := e.NewCallRoot(e.NewCallSite("app", 0, r))
	cnodes := []*core.CallNode{root}
	for i := 1; i < 120; i++ {
		cnodes = append(cnodes, cnodes[i/4].NewChild(e.NewCallSite("app", i, r)))
	}
	threads := e.SingleThreadedSystem("cluster", 4, 8)
	rng := rand.New(rand.NewSource(42))
	for _, m := range metrics {
		for _, c := range cnodes {
			for _, th := range threads {
				if rng.Intn(3) != 0 {
					e.SetSeverity(m, c, th, rng.NormFloat64()*1e3)
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, e); err != nil {
		tb.Fatal(err)
	}
	return e, buf.Bytes()
}

func benchmarkRead(b *testing.B, engine ReadEngine) {
	_, data := benchExperiment(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBytes(context.Background(), data, ReadOptions{Limits: DefaultLimits, Engine: engine}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFast(b *testing.B)   { benchmarkRead(b, EngineFast) }
func BenchmarkReadLegacy(b *testing.B) { benchmarkRead(b, EngineLegacy) }

func BenchmarkReadInfo(b *testing.B) {
	_, data := benchExperiment(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadInfo(context.Background(), bytes.NewReader(data), ReadOptions{Limits: DefaultLimits}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkWrite(b *testing.B, e *core.Experiment, w func(io.Writer, *core.Experiment) error) {
	var buf bytes.Buffer
	if err := Write(&buf, e); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w(io.Discard, e); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkWriteSizes(b *testing.B, w func(io.Writer, *core.Experiment) error) {
	b.Run("bench", func(b *testing.B) {
		e, _ := benchExperiment(b)
		benchmarkWrite(b, e, w)
	})
	b.Run("64x512x64", func(b *testing.B) {
		e := synth.Experiment(64, 512, 64, 0)
		e.CompactSeverities()
		benchmarkWrite(b, e, w)
	})
}

func BenchmarkWriteFast(b *testing.B)   { benchmarkWriteSizes(b, writeFast) }
func BenchmarkWriteLegacy(b *testing.B) { benchmarkWriteSizes(b, writeLegacy) }

// TestBenchDocInFastSubset keeps the benchmark honest: if the benchmark
// document ever falls out of the fast-path subset, BenchmarkReadFast
// would silently measure the legacy decoder.
func TestBenchDocInFastSubset(t *testing.T) {
	_, data := benchExperiment(t)
	if !strings.Contains(string(data), "<severity>") {
		t.Fatal("benchmark document has no severity section")
	}
	if _, err := ReadBytes(context.Background(), data, ReadOptions{Limits: DefaultLimits, Engine: EngineFast}); err != nil {
		t.Fatalf("benchmark document outside fast subset: %v", err)
	}
}

// ingested builds an experiment of nM metrics, nC call nodes and nT
// threads whose every row is stored in full, through the ingest seam so
// that rows may hold explicit zeros. value gives each tuple's value.
func ingested(nM, nC, nT int, value func(mi, ci, ti int) float64) *core.Experiment {
	e := core.New("ingested")
	for i := 0; i < nM; i++ {
		e.NewMetric(fmt.Sprintf("m%d", i), core.Seconds, "")
	}
	r := e.NewRegion("main", "app", 0, 0)
	root := e.NewCallRoot(e.NewCallSite("app", 0, r))
	for i := 1; i < nC; i++ {
		root.NewChild(e.NewCallSite("app", i, r))
	}
	e.Invalidate()
	e.SingleThreadedSystem("m", 1, nT)
	ing := e.NewSeverityIngest()
	var keys []uint64
	var vals []float64
	for mi := 0; mi < nM; mi++ {
		for ci := 0; ci < nC; ci++ {
			for ti := 0; ti < nT; ti++ {
				keys = append(keys, ing.RowKey(mi, ci)+uint64(ti))
				vals = append(vals, value(mi, ci, ti))
			}
		}
	}
	ing.Commit(keys, vals, true)
	return e
}

// TestWriteShardBoundaries walks every shard count from 1 to past the row
// count over small documents, so cuts land inside one metric's matrix, on
// matrix edges, next to all-zero rows, and on shards that emit nothing.
func TestWriteShardBoundaries(t *testing.T) {
	const nM, nC, nT = 3, 4, 2
	cases := map[string]func(mi, ci, ti int) float64{
		"dense": func(mi, ci, ti int) float64 { return float64(mi*100+ci*10+ti) + 0.5 },
		// Every other row is all zero, so some cut always falls next to one.
		"alternating zero rows": func(mi, ci, ti int) float64 {
			if (mi*nC+ci)%2 == 1 {
				return 0
			}
			return float64(ci + 1)
		},
		// Only the first and last rows carry values: the shards between
		// them emit nothing, and the stitcher must still close and open
		// the right matrices.
		"empty middle": func(mi, ci, ti int) float64 {
			if (mi == 0 && ci == 0) || (mi == nM-1 && ci == nC-1) {
				return -2.25
			}
			return 0
		},
		// Whole matrices of zeros between non-zero ones.
		"zero metric": func(mi, ci, ti int) float64 {
			if mi == 1 {
				return 0
			}
			return 1e15 + float64(ti)
		},
		"all zero": func(mi, ci, ti int) float64 { return 0 },
	}
	var counts []int
	for n := 1; n <= nM*nC+2; n++ {
		counts = append(counts, n)
	}
	for name, value := range cases {
		checkWriteShards(t, name, ingested(nM, nC, nT, value), counts...)
	}
}

// TestWriteNonFiniteInLastShard puts a non-finite value in the final
// tuple, which the last shard formats while earlier shards finish
// cleanly: the error must still be the legacy text and nothing may reach
// the writer. With a second offender in an earlier shard, that one must
// name the error.
func TestWriteNonFiniteInLastShard(t *testing.T) {
	const nM, nC, nT = 4, 8, 3
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		e := ingested(nM, nC, nT, func(mi, ci, ti int) float64 {
			if mi == nM-1 && ci == nC-1 && ti == nT-1 {
				return bad
			}
			return float64(mi + ci + ti + 1)
		})
		checkWriteShards(t, fmt.Sprint(bad), e, 1, 2, 3, 7, nM*nC+1)
	}
	// Two offenders in different shards: the earlier one names the error.
	e := ingested(nM, nC, nT, func(mi, ci, ti int) float64 {
		switch {
		case mi == 1 && ci == 2 && ti == 0:
			return math.NaN()
		case mi == nM-1 && ci == nC-1 && ti == nT-1:
			return math.Inf(-1)
		}
		return 1
	})
	checkWriteShards(t, "two offenders", e, 1, 2, 3, 7, nM*nC+1)
}

// TestWriteSyntheticLarge pins the 64×512×64 benchmark document, where
// the automatic count really shards, to the legacy writer.
func TestWriteSyntheticLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("64x512x64 legacy encode is slow")
	}
	checkWriteShards(t, "64x512x64", synth.Experiment(64, 512, 64, 0), 0, 1, 2, 3, 7)
}

// TestWriteConcurrentShared writes one compacted experiment — the state
// the server's parse cache shares between requests — from several
// goroutines at once. Run under -race it checks that the sharded writer
// only ever reads the experiment.
func TestWriteConcurrentShared(t *testing.T) {
	e := synth.Experiment(8, 64, 16, 0)
	e.CompactSeverities()
	var want bytes.Buffer
	if err := writeFastShards(&want, e, 1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got bytes.Buffer
			if err := writeFastShards(&got, e, g+2); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("goroutine %d: %s", g, firstDiff(got.Bytes(), want.Bytes()))
			}
		}(g)
	}
	wg.Wait()
}
