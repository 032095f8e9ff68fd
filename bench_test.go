// Benchmark harness: one benchmark per evaluation artifact of the paper
// (Figures 1-3, the §5.1 speedup table, the §5.2 trace-size comparison)
// plus scaling sweeps for the algebra's operators and ablations of design
// choices called out in DESIGN.md. Reported custom metrics carry the
// reproduced values so a -bench run doubles as a regeneration of the
// paper's numbers:
//
//	go test -bench=. -benchmem
package cube_test

import (
	"io"
	"testing"

	"cube"
	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/repro"
	"cube/internal/synth"
)

// --- Paper artifacts ----------------------------------------------------------

// BenchmarkFig1_PescanExpertPipeline regenerates Figure 1: simulate the
// unoptimized PESCAN run, analyze the trace, select Wait-at-Barrier. The
// reported wait_pct metric corresponds to the paper's 13.2 %.
func BenchmarkFig1_PescanExpertPipeline(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		r, err := repro.Fig1(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		pct = r.WaitAtBarrierPct
	}
	b.ReportMetric(pct, "wait_pct")
}

// BenchmarkFig2_Difference regenerates Figure 2's difference experiment
// from two pre-analyzed runs (the operator itself is what Figure 2 adds
// over Figure 1, so only the operator is in the timed loop).
func BenchmarkFig2_Difference(b *testing.B) {
	r, err := repro.Fig2(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var gross float64
	for i := 0; i < b.N; i++ {
		d, err := cube.Difference(r.Before, r.After, nil)
		if err != nil {
			b.Fatal(err)
		}
		gross = d.MetricInclusive(d.FindMetricByName("Time"))
	}
	oldTotal := r.Before.MetricInclusive(r.Before.FindMetricByName("Time"))
	b.ReportMetric(100*gross/oldTotal, "gross_gain_pct")
}

// BenchmarkSolverSpeedupSeries regenerates the §5.1 measurement: two
// series of solver runs, minimum as representative. speedup_pct
// corresponds to the paper's ~16 %.
func BenchmarkSolverSpeedupSeries(b *testing.B) {
	var sp float64
	for i := 0; i < b.N; i++ {
		r, err := repro.Speedup(repro.PaperValues.SeriesRuns, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		sp = r.SpeedupPct
	}
	b.ReportMetric(sp, "speedup_pct")
}

// BenchmarkFig3_MergeConeExpert regenerates Figure 3: one EXPERT
// measurement, two conflict-split CONE measurements, one merge.
func BenchmarkFig3_MergeConeExpert(b *testing.B) {
	var conc float64
	for i := 0; i < b.N; i++ {
		r, err := repro.Fig3(int64(i+1), 1)
		if err != nil {
			b.Fatal(err)
		}
		conc = r.L1MissAtRecvPct
	}
	b.ReportMetric(conc, "l1dcm_at_recv_pct")
}

// BenchmarkTraceSizeAblation regenerates the §5.2 size comparison:
// trace-with-counters vs plain trace vs CONE profile.
func BenchmarkTraceSizeAblation(b *testing.B) {
	var r *repro.TraceSizeResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = repro.TraceSize(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.CounterTraceBytes), "trace+cnt_B")
	b.ReportMetric(float64(r.PlainTraceBytes), "trace_B")
	b.ReportMetric(float64(r.ProfileBytes), "profile_B")
}

// --- Operator scaling sweeps ----------------------------------------------------

// synthetic is the shared benchmark shape (internal/synth), also used by
// the codec benchmarks in internal/cubexml.
var synthetic = synth.Experiment

func benchOp(b *testing.B, metrics, cnodes, threads int,
	op func(a, x *core.Experiment) (*core.Experiment, error)) {
	a := synthetic(metrics, cnodes, threads, 0)
	x := synthetic(metrics, cnodes, threads, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op(a, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDifference_16x64x16(b *testing.B) {
	benchOp(b, 16, 64, 16, func(a, x *core.Experiment) (*core.Experiment, error) {
		return core.Difference(a, x, nil)
	})
}

func BenchmarkDifference_64x512x64(b *testing.B) {
	benchOp(b, 64, 512, 64, func(a, x *core.Experiment) (*core.Experiment, error) {
		return core.Difference(a, x, nil)
	})
}

func BenchmarkMerge_16x64x16(b *testing.B) {
	benchOp(b, 16, 64, 16, func(a, x *core.Experiment) (*core.Experiment, error) {
		return core.Merge(a, x, nil)
	})
}

func BenchmarkMerge_64x512x64(b *testing.B) {
	benchOp(b, 64, 512, 64, func(a, x *core.Experiment) (*core.Experiment, error) {
		return core.Merge(a, x, nil)
	})
}

func BenchmarkMean2_16x64x16(b *testing.B) {
	benchOp(b, 16, 64, 16, func(a, x *core.Experiment) (*core.Experiment, error) {
		return core.Mean(nil, a, x)
	})
}

func BenchmarkMean8_16x64x16(b *testing.B) {
	xs := make([]*core.Experiment, 8)
	for i := range xs {
		xs[i] = synthetic(16, 64, 16, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Mean(nil, xs...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMin_16x64x16(b *testing.B) {
	benchOp(b, 16, 64, 16, func(a, x *core.Experiment) (*core.Experiment, error) {
		return core.Min(nil, a, x)
	})
}

func BenchmarkStdDev8_16x64x16(b *testing.B) {
	xs := make([]*core.Experiment, 8)
	for i := range xs {
		xs[i] = synthetic(16, 64, 16, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.StdDev(nil, xs...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlatten_16x64x16(b *testing.B) {
	e := synthetic(16, 64, 16, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Flatten(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrune_16x64x16(b *testing.B) {
	e := synthetic(16, 64, 16, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Prune(e, "Time", 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine ablation -------------------------------------------------------------

// Legacy-engine companions of the kernel-path benchmarks above: the same
// operand shapes driven through the original pointer-map walk
// (core.EngineLegacy), so a single -bench run reports the kernel layer's
// speedup directly.
func BenchmarkDifferenceLegacy_64x512x64(b *testing.B) {
	benchOp(b, 64, 512, 64, func(a, x *core.Experiment) (*core.Experiment, error) {
		return core.Difference(a, x, &core.Options{Engine: core.EngineLegacy})
	})
}

func BenchmarkMean8Legacy_16x64x16(b *testing.B) {
	xs := make([]*core.Experiment, 8)
	for i := range xs {
		xs[i] = synthetic(16, 64, 16, i)
	}
	opts := &core.Options{Engine: core.EngineLegacy}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Mean(opts, xs...); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -------------------------------------------------------------------

// Call-tree matching ablation (DESIGN.md): the default callee-based
// equality tolerates line-number changes across code versions; the
// callee+line relation is stricter and yields larger integrated trees when
// lines differ.
func BenchmarkMergeCalleeMatch(b *testing.B) {
	x := synthetic(16, 128, 16, 0)
	y := synthetic(16, 128, 16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Merge(x, y, &core.Options{CallMatch: core.CallMatchCallee}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeCalleeLineMatch(b *testing.B) {
	x := synthetic(16, 128, 16, 0)
	y := synthetic(16, 128, 16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Merge(x, y, &core.Options{CallMatch: core.CallMatchCalleeLine}); err != nil {
			b.Fatal(err)
		}
	}
}

// Dense-array iteration versus the sparse map store (DESIGN.md: the paper
// stores severities as a dense 3-D array; this library keeps a sparse
// canonical store and materialises dense snapshots on demand).
func BenchmarkSeverityDenseSnapshot(b *testing.B) {
	e := synthetic(32, 256, 32, 0)
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		d := e.Dense()
		for _, plane := range d.Values {
			for _, row := range plane {
				for _, v := range row {
					sum += v
				}
			}
		}
	}
	_ = sum
}

func BenchmarkSeveritySparseIteration(b *testing.B) {
	e := synthetic(32, 256, 32, 0)
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		e.EachSeverity(func(_ *core.Metric, _ *core.CallNode, _ *core.Thread, v float64) {
			sum += v
		})
	}
	_ = sum
}

func BenchmarkSeverityRandomAccess(b *testing.B) {
	e := synthetic(32, 256, 32, 0)
	ms, cs, ths := e.Metrics(), e.CallNodes(), e.Threads()
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += e.Severity(ms[i%len(ms)], cs[i%len(cs)], ths[i%len(ths)])
	}
	_ = sum
}

// --- File format ------------------------------------------------------------------

func BenchmarkXMLWrite(b *testing.B) {
	e := synthetic(32, 256, 32, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cubexml.Write(io.Discard, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXMLRoundTrip(b *testing.B) {
	e := synthetic(16, 64, 16, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeBuffer
		if err := cubexml.Write(&buf, e); err != nil {
			b.Fatal(err)
		}
		if _, err := cubexml.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// writeBuffer is a minimal in-memory read/write buffer.
type writeBuffer struct {
	data []byte
	off  int
}

func (w *writeBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

func (w *writeBuffer) Read(p []byte) (int, error) {
	if w.off >= len(w.data) {
		return 0, io.EOF
	}
	n := copy(p, w.data[w.off:])
	w.off += n
	return n, nil
}
