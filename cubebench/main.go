// Command cubebench is the repository's end-to-end benchmark. One process
// runs the cube service over loopback and drives it, closed loop, through
// the public client package, on one of three workloads:
//
//	regress-inline  the CI regression check: difference of two inline runs
//	digest-large    the egress path: difference of two large stored runs
//	series-expr     a run-series expression evaluated server-side
//
// Untraced (-trace 0) it reports the end-to-end metrics; traced (-trace 1)
// it replays the same requests as direct calls into each layer and
// reports the per-layer breakdown. Every response is checked against a
// reference result. See README.md.
//
//	cubebench -workload regress-inline -seed 1 -seconds 30 -trace 0
//	cubebench compare [-bench BENCHMARK.json] RESULTS_A RESULTS_B
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cube/internal/cubexml"
	"cube/internal/promtext"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is the line before the result: what ran, where, and why a run
// that failed did. Host drift shows here instead of as a regression.
type runInfo struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Trace      int       `json:"trace"`
	Seconds    int       `json:"seconds"`
	Host       string    `json:"host"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	StealPct   float64   `json:"steal_pct"`
	Samples    int       `json:"samples"`
	TailP90    int       `json:"samples_above_p90"`
	WallS      float64   `json:"timed_s"`
	SetupRuns  []float64 `json:"setup_runs_s"`
	Warmup     int       `json:"warmup_requests"`
	Replayed   int       `json:"replayed_requests,omitempty"`
	Error      string    `json:"error,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: regress-inline, digest-large or series-expr")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer breakdown")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "cubebench"), "directory for work files, spans and breakdowns")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "cubebench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cpu0 := readCPUTimes()
	res, info, err := run(context.Background(), o)
	info.StealPct = stealPct(cpu0, readCPUTimes())
	if err != nil {
		info.Error = err.Error()
		fmt.Fprintln(os.Stderr, "cubebench:", err)
	}
	if res == nil {
		// The run failed before it measured anything: it counts as one
		// failed operation, and the run line says why.
		res = &result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
	}
	emit(map[string]runInfo{"run": info})
	emit(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

// phase is what one stretch of the closed loop did.
type phase struct {
	lat       []time.Duration // successful requests only
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
	// think is the CPU the client goroutines spent outside requests:
	// preparing operands and checking responses.
	think time.Duration
}

func (p *phase) completed() int { return p.attempted - p.failed }

// loop runs the workload closed loop — each client sends its next request
// only when the previous one is answered and checked — until stop, which
// is called under the phase lock, says so. A request index comes from
// next, so every request of a run is distinct.
func loop(ctx context.Context, s *stack, w workload, next *atomic.Int64, stop func(p *phase, elapsed time.Duration) bool) (*phase, error) {
	p := &phase{}
	var mu sync.Mutex
	var fatal error
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Pinning the goroutine to its thread makes threadCPU the
			// CPU of this client's own work.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			cl := s.client()
			for {
				mu.Lock()
				done := fatal != nil || stop(p, time.Since(start))
				mu.Unlock()
				if done {
					return
				}
				i := int(next.Add(1) - 1)
				c0 := threadCPU()
				req, err := w.prepare(i)
				think := threadCPU() - c0
				if err != nil {
					mu.Lock()
					fatal = err
					mu.Unlock()
					return
				}
				t0 := time.Now()
				res, st, err := req.send(ctx, cl)
				lat := time.Since(t0)
				c1 := threadCPU()
				if err == nil {
					err = req.check(res, st)
				}
				think += threadCPU() - c1
				mu.Lock()
				p.attempted++
				p.think += think
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("request %d: %w", i, err)
					}
				} else {
					p.lat = append(p.lat, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p, fatal
}

// runUntimed sends n requests (warm-up) and fails on any failure.
func runUntimed(ctx context.Context, s *stack, w workload, next *atomic.Int64, n int) error {
	p, err := loop(ctx, s, w, next, func(p *phase, _ time.Duration) bool { return p.attempted >= n })
	if err != nil {
		return err
	}
	return p.firstErr
}

// timedFor stops a loop after d.
func timedFor(d time.Duration) func(*phase, time.Duration) bool {
	return func(_ *phase, el time.Duration) bool { return el >= d }
}

// timedWithTail stops a loop after d once p90 has minTail samples above
// it, or after 3d whatever the count.
func timedWithTail(d time.Duration) func(*phase, time.Duration) bool {
	return func(p *phase, el time.Duration) bool {
		return el >= 3*d || el >= d && tailOK(msAll(p.lat))
	}
}

func run(ctx context.Context, o options) (*result, runInfo, error) {
	info := runInfo{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	if o.trace {
		info.Trace = 1
	}
	info.Host, _ = os.Hostname()
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, info, err
	}
	work := filepath.Join(o.out, fmt.Sprintf("work-%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, info, err
	}
	defer removeAll(work)
	if err := w.inputs(); err != nil {
		return nil, info, fmt.Errorf("inputs: %w", err)
	}
	// Set-up, several times over on fresh stacks: setup_s is the median of
	// the times to start the stack and do the workload's set-up requests.
	reps := w.setupReps()
	if o.trace {
		reps = 1
	}
	var s *stack
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	for k := 0; k < reps; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, info, err
			}
			s = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, err = startStack(filepath.Join(work, "store-"+strconv.Itoa(k)), w.clients())
		if err != nil {
			return nil, info, err
		}
		check, err := w.setup(ctx, s)
		if err != nil {
			return nil, info, fmt.Errorf("setup: %w", err)
		}
		info.SetupRuns = append(info.SetupRuns, time.Since(t0).Seconds())
		if check != nil {
			if err := check(); err != nil {
				return nil, info, fmt.Errorf("setup: %w", err)
			}
		}
	}

	var next atomic.Int64
	if err := w.warm(ctx, s, &next); err != nil {
		return nil, info, fmt.Errorf("warm-up: %w", err)
	}
	info.Warmup = int(next.Load())
	runtime.GC()

	dur := time.Duration(o.seconds) * time.Second
	var res *result
	if o.trace {
		res, err = runTraced(ctx, o, w, s, &next, dur, work, &info)
	} else {
		res, err = runUntraced(ctx, w, s, &next, dur, &info)
	}
	return res, info, err
}

func runUntraced(ctx context.Context, w workload, s *stack, next *atomic.Int64, dur time.Duration, info *runInfo) (*result, error) {
	before, err := s.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cpu := processCPU()
	s.reqBytes.Store(0)
	p, err := loop(ctx, s, w, next, timedWithTail(dur))
	cpu = processCPU() - cpu
	if err != nil {
		return nil, err
	}
	after, err := s.scrape(ctx)
	if err != nil {
		return nil, err
	}
	lat := msAll(p.lat)
	info.Samples = len(lat)
	p90 := percentile(lat, 90)
	info.TailP90 = above(lat, p90)
	info.WallS = p.wall.Seconds()
	res := &result{Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{
		"latency_p50_ms":       {percentile(lat, 50), "ms"},
		"latency_p90_ms":       {p90, "ms"},
		"throughput_ops_per_s": {float64(p.completed()) / p.wall.Seconds(), "1/s"},
		"success_ratio":        {float64(p.completed()) / float64(max(p.attempted, 1)), "ratio"},
		"cpu_ms_per_op":        {ms(cpu-p.think) / float64(max(p.completed(), 1)), "ms"},
		"peak_rss_mb":          {peakRSSMB(), "MB"},
		"setup_s":              {median(info.SetupRuns), "s"},
	}}
	var errs []error
	if p.firstErr != nil {
		errs = append(errs, p.firstErr)
	}
	if info.TailP90 < minTail {
		errs = append(errs, fmt.Errorf("only %d samples above p90 (need %d)", info.TailP90, minTail))
	}
	if err := w.gate(promtext.Delta(before, after), p.attempted, s.reqBytes.Load()); err != nil {
		errs = append(errs, err)
	}
	res.Correct = len(errs) == 0 && p.attempted > 0
	return res, errors.Join(errs...)
}

// runTraced reports the per-layer breakdown. It runs three phases on the
// warmed stack, in order:
//
//  1. untraced, half the run: the round trip the layers must add up to,
//     the /metrics and runtime counter deltas, and the body bytes;
//  2. the same traffic with the timing wrapper around the handler, a
//     quarter of the run: server.handle_ms, and the traced − untraced
//     p50 as tracing overhead;
//  3. the replay, a quarter of the run: the requests phase 1 sent, from
//     its first index on, as direct calls into each layer with a span
//     per call, giving each layer's median self time per request.
func runTraced(ctx context.Context, o options, w workload, s *stack, next *atomic.Int64, dur time.Duration, work string, info *runInfo) (*result, error) {
	m0, err := s.scrape(ctx)
	if err != nil {
		return nil, err
	}
	first := int(next.Load())
	rt0 := readRuntime()
	s.reqBytes.Store(0)
	s.respBytes.Store(0)
	pu, err := loop(ctx, s, w, next, timedFor(dur/2))
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	reqB, respB := s.reqBytes.Load(), s.respBytes.Load()
	m1, err := s.scrape(ctx)
	if err != nil {
		return nil, err
	}
	d := promtext.Delta(m0, m1)
	n := float64(max(pu.attempted, 1))

	s.timeHandler.Store(true)
	pt, err := loop(ctx, s, w, next, timedFor(dur/4))
	s.timeHandler.Store(false)
	if err != nil {
		return nil, err
	}
	handles := msAll(s.handleTimes())
	reqB2 := s.reqBytes.Load() - reqB
	m2, err := s.scrape(ctx)
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	if err := w.replaySetup(ctx, s, filepath.Join(work, "replay-store"), rec); err != nil {
		return nil, fmt.Errorf("replay setup: %w", err)
	}
	t0 := time.Now()
	replayed := 0
	for ; replayed < 5 || time.Since(t0) < dur/4 && replayed < 200; replayed++ {
		rec.req = replayed
		if err := w.replay(ctx, rec, first+replayed); err != nil {
			return nil, fmt.Errorf("replay of request %d: %w", first+replayed, err)
		}
	}
	info.Replayed = replayed

	// Per-layer medians over the replayed requests.
	selfs := rec.selfTimes()
	layer := func(names ...string) float64 {
		var xs []float64
		for k := 0; k < replayed; k++ {
			v := 0.0
			for _, name := range names {
				v += selfs[k][name]
			}
			xs = append(xs, v)
		}
		return median(xs)
	}
	med := map[string]float64{}
	for _, name := range []string{"client.encode", "client.decode", "cubexml.read", "cubexml.write",
		"store.get", "expr.eval", "core.op",
		"core.integrate", "core.lower", "core.kernel", "core.materialize"} {
		med[name] = layer(name)
	}
	coreTotal := layer("core.op", "core.integrate", "core.lower", "core.kernel", "core.materialize")
	serverLayers := med["store.get"] + med["cubexml.read"] +
		med["expr.eval"] + coreTotal + med["cubexml.write"]
	clientLayers := med["client.encode"] + med["client.decode"]
	latU := msAll(pu.lat)
	roundTrip := percentile(latU, 50)
	handle := median(handles)
	info.Samples = len(latU)
	info.TailP90 = above(latU, percentile(latU, 90))
	info.WallS = (pu.wall + pt.wall).Seconds()

	ratio := func(hit, miss string) float64 {
		h, m := d.Sum(hit, nil), d.Sum(miss, nil)
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	mt := map[string]metric{
		"client.encode_ms":         {med["client.encode"], "ms"},
		"client.decode_ms":         {med["client.decode"], "ms"},
		"client.request_bytes":     {float64(reqB) / n, "B"},
		"client.response_bytes":    {float64(respB) / n, "B"},
		"cubexml.read_ms":          {med["cubexml.read"], "ms"},
		"cubexml.write_ms":         {med["cubexml.write"], "ms"},
		"store.get_ms":             {med["store.get"], "ms"},
		"store.put_ms":             {selfs[-1]["store.put"], "ms"},
		"parsecache.hit_ratio":     {ratio("cube_parse_cache_hits_total", "cube_parse_cache_misses_total"), "ratio"},
		"lowercache.hit_ratio":     {ratio("cube_lower_cache_hits_total", "cube_lower_cache_misses_total"), "ratio"},
		"core.op_ms":               {coreTotal, "ms"},
		"core.integrate_ms":        {med["core.integrate"], "ms"},
		"core.lower_ms":            {med["core.lower"], "ms"},
		"core.kernel_ms":           {med["core.kernel"], "ms"},
		"core.materialize_ms":      {med["core.materialize"], "ms"},
		"expr.eval_ms":             {med["expr.eval"], "ms"},
		"expr.nodes_evaluated":     {d.Sum("cube_expr_eval_nodes_total", nil) / n, "count"},
		"expr.cse_hits":            {d.Sum("cube_expr_cse_hits_total", nil) / n, "count"},
		"expr.cache_hit_ratio":     {ratio("cube_expr_cache_hits_total", "cube_expr_cache_misses_total"), "ratio"},
		"server.handle_ms":         {handle, "ms"},
		"http.roundtrip_ms":        {roundTrip, "ms"},
		"http.other_ms":            {roundTrip - clientLayers - serverLayers, "ms"},
		"trace.overhead_ms":        {percentile(msAll(pt.lat), 50) - roundTrip, "ms"},
		"runtime.alloc_mb_per_op":  {float64(rt1.allocBytes-rt0.allocBytes) / n / (1 << 20), "MB"},
		"runtime.gc_cycles_per_op": {float64(rt1.gcCycles-rt0.gcCycles) / n, "count"},
	}
	res := &result{Attempted: pu.attempted + pt.attempted, Failed: pu.failed + pt.failed, Metrics: mt}

	// The breakdown as a CUBE experiment: exclusive times whose total is
	// the round trip (the server node keeps the handler time no layer
	// claims; http.transport the rest).
	tree := map[string]float64{}
	for name, v := range med {
		tree[name] = v
	}
	tree["core.op"] = coreTotal - med["core.integrate"] - med["core.lower"] - med["core.kernel"] - med["core.materialize"]
	tree["server"] = handle - serverLayers
	tree["http.transport"] = roundTrip - clientLayers - handle
	e, err := breakdownExperiment(o.workload, o.seed, tree, float64(reqB)/n, float64(respB)/n)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-%d", o.workload, o.seed))
	if err := cubexml.WriteFile(base+".breakdown.cube", e); err != nil {
		return nil, err
	}
	if err := rec.writeSpans(base + ".spans.jsonl"); err != nil {
		return nil, err
	}

	var errs []error
	for _, p := range []*phase{pu, pt} {
		if p.firstErr != nil {
			errs = append(errs, p.firstErr)
		}
	}
	if err := w.gate(d, pu.attempted, reqB); err != nil {
		errs = append(errs, err)
	}
	if err := w.gate(promtext.Delta(m1, m2), pt.attempted, reqB2); err != nil {
		errs = append(errs, err)
	}
	for name, m := range mt {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			errs = append(errs, fmt.Errorf("metric %s is %v", name, m.Value))
		}
	}
	res.Correct = len(errs) == 0 && pu.attempted > 0 && pt.attempted > 0
	return res, errors.Join(errs...)
}
