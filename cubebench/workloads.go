package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime/multipart"
	"sync"
	"sync/atomic"

	"cube/client"
	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/expr"
	"cube/internal/obs"
	"cube/internal/promtext"
	"cube/internal/store"
)

// eps is the tolerance responses are compared with (core.AlmostEqual):
// the server and the reference may sum in different orders.
const eps = 1e-9

// errMismatch marks a response that differs from its reference result.
var errMismatch = errors.New("response differs from the reference result")

// request is one prepared request of a workload's sequence: send is what
// the closed loop times, check compares the response with the reference.
type request struct {
	send  func(ctx context.Context, c *client.Client) (*core.Experiment, client.ExprStats, error)
	check func(res *core.Experiment, st client.ExprStats) error
}

// workload is one traffic mix. Every request index names one request of a
// sequence fixed by the seed; the timed loop, the warm-up and the traced
// replay all draw from it.
type workload interface {
	clients() int
	// setupReps is how many times setup_s is measured; the median counts.
	setupReps() int
	// inputs generates the seeded operands and the reference results. It
	// runs once, before the first set-up and outside every timer.
	inputs() error
	// setup is the program's set-up work on a fresh stack, the part
	// setup_s times: the uploads, or, for a workload that stores
	// nothing, its first request against cold caches. The check it
	// returns compares what set-up got back with the references; it runs
	// after the clock has stopped.
	setup(ctx context.Context, s *stack) (check func() error, err error)
	// warm brings the server's caches to the state every timed request
	// sees, using request indices from *next onwards.
	warm(ctx context.Context, s *stack, next *atomic.Int64) error
	// prepare builds request i; it fails once the sequence is exhausted.
	// Calls for distinct i may run concurrently when clients() > 1.
	prepare(i int) (*request, error)
	// gate checks, from the /metrics deltas over n timed requests and the
	// request body bytes they sent, that they took the path the workload
	// is named for.
	gate(d promtext.Metrics, n int, reqBytes int64) error
	// replaySetup and replay perform the same work as direct calls into each
	// layer's public function, one span per call (see traced.go).
	replaySetup(ctx context.Context, s *stack, dir string, rec *recorder) error
	replay(ctx context.Context, rec *recorder, i int) error
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "regress-inline":
		return &regressInline{seed: seed, sz: medium}, nil
	case "digest-large":
		return &digestLarge{seed: seed, sz: large}, nil
	case "series-expr":
		return &seriesExpr{seed: seed, sz: medium}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want regress-inline, digest-large or series-expr)", name)
}

// counter reads one counter from a /metrics delta.
func counter(d promtext.Metrics, name string) int {
	return int(d.Sum(name, nil))
}

// parseMaster parses one operand the way the server's parse cache keeps
// it: compacted, with its metadata digest computed.
func parseMaster(data []byte) (*core.Experiment, error) {
	e, err := cubexml.ReadBytes(context.Background(), data, cubexml.ReadOptions{Limits: cubexml.DefaultLimits})
	if err != nil {
		return nil, err
	}
	e.CompactSeverities()
	e.MetaDigest()
	return e, nil
}

// masters are the parsed operands the server's parse cache holds for the
// stored runs of a replay, by digest. Looking one up is the replay's
// stand-in for a parse-cache hit and gets no span: the server's own cache
// work stays in the server residual.
type masters map[store.Digest]*core.Experiment

// replayStore is the replay's set-up for stored operands: a fresh store
// in dir with every experiment put into it (one store.put span each), and
// the masters the server would hold for them.
func replayStore(ctx context.Context, dir string, rec *recorder, exps ...*core.Experiment) (*store.Store, masters, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, nil, err
	}
	m := masters{}
	for _, e := range exps {
		var buf bytes.Buffer
		if err := cubexml.Write(&buf, e); err != nil {
			return nil, nil, err
		}
		rec.begin("store.put")
		d, _, err := st.PutContext(ctx, buf.Bytes(), nil)
		rec.end()
		if err != nil {
			return nil, nil, err
		}
		if m[d], err = parseMaster(buf.Bytes()); err != nil {
			return nil, nil, err
		}
	}
	return st, m, nil
}

// replayStoreGet reads a blob the way the server does for a digest
// operand: a verified store read (the store.get span), then the master
// the parse cache holds for it.
func replayStoreGet(ctx context.Context, rec *recorder, st *store.Store, m masters, digest string) (*core.Experiment, error) {
	d, ok := store.ParseDigest(digest)
	if !ok {
		return nil, fmt.Errorf("bad digest %q", digest)
	}
	rec.begin("store.get")
	_, err := st.GetContext(ctx, d)
	rec.end()
	if err != nil {
		return nil, err
	}
	e, ok := m[d]
	if !ok {
		return nil, fmt.Errorf("replay: digest %s has no master", digest)
	}
	return e, nil
}

// replayTail is the egress every workload shares: the server writes the
// result, the client decodes it.
func replayTail(ctx context.Context, rec *recorder, res *core.Experiment) error {
	var buf bytes.Buffer
	rec.begin("cubexml.write")
	err := cubexml.WriteContext(ctx, &buf, res)
	rec.end()
	if err != nil {
		return err
	}
	rec.begin("client.decode")
	_, err = cubexml.Read(bytes.NewReader(buf.Bytes()))
	rec.end()
	return err
}

// traceOpts returns operator options whose Trace collects the stage spans
// core already emits, under a fresh root span.
func traceOpts() (*core.Options, *obs.Span) {
	root := replayTracer.StartTrace("replay", "")
	return &core.Options{Trace: root}, root
}

// replayTracer retains nothing: the replay reads each tree right away.
var replayTracer = obs.NewTracer(obs.TracerOptions{RingSize: 1})

var oracle = &core.Options{Workers: 1}

// --- regress-inline ---------------------------------------------------------

// regressInline is the CI regression check: one client uploads a fixed
// baseline and a new "after" run inline and asks for their difference.
// The after run changes one severity per request, so each request misses
// the parse cache once (after) and hits it once (baseline).
type regressInline struct {
	seed        int64
	sz          size
	base, after *core.Experiment
	after0      *core.Experiment // after before any change
	ref0        *core.Experiment // difference of after0 and base
	fresh       *freshOperand

	// replay state
	rAfter *core.Experiment
	rFresh *freshOperand
	rBase  *core.Experiment // the baseline's parse-cache master
}

func (w *regressInline) clients() int   { return 1 }
func (w *regressInline) setupReps() int { return 7 }

func (w *regressInline) inputs() error {
	w.base = synthetic(w.sz, 0, w.seed)
	w.after = synthetic(w.sz, 3, w.seed)
	w.after0 = w.after.Clone()
	w.fresh = newFreshOperand(w.after, w.seed)
	// The reference for request i is core.Difference(after_i, base),
	// computed when the response arrives; ref0 checks set-up's request.
	var err error
	if w.ref0, err = core.Difference(w.after0, w.base, oracle); err != nil {
		return err
	}
	if w.ref0.NonZeroCount() == 0 {
		return errors.New("regress-inline: empty reference difference")
	}
	return nil
}

// setup is the check's first request against a cold server: both
// operands miss the parse cache, and the baseline stays in it.
func (w *regressInline) setup(ctx context.Context, s *stack) (func() error, error) {
	res, err := s.client().Difference(ctx, w.after0, w.base, nil)
	if err != nil {
		return nil, err
	}
	return func() error {
		if !core.AlmostEqual(res, w.ref0, eps) {
			return fmt.Errorf("set-up request: %w", errMismatch)
		}
		return nil
	}, nil
}

// warm fills the parse cache to its byte budget, so memory and eviction
// work are the same from the first timed request to the last: two
// goroutines upload distinct copies of the after run (the title varies)
// until the cache evicts, then a few real requests run.
func (w *regressInline) warm(ctx context.Context, s *stack, next *atomic.Int64) error {
	var evicted atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.client()
			e := w.after0.Clone()
			for k := 0; !evicted.Load() && k < 4096; k++ {
				e.Title = fmt.Sprintf("warm-%d-%d", g, k)
				if _, err := c.Info(ctx, e); err != nil {
					errs[g] = err
					return
				}
				if k%8 == 7 {
					m, err := s.scrape(ctx)
					if err != nil {
						errs[g] = err
						return
					}
					if counter(m, "cube_parse_cache_evictions_total") > 0 {
						evicted.Store(true)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if !evicted.Load() {
		return errors.New("regress-inline: warm-up did not fill the parse cache")
	}
	return runUntimed(ctx, s, w, next, 3)
}

func (w *regressInline) prepare(i int) (*request, error) {
	w.fresh.step(i)
	return &request{
		send: func(ctx context.Context, c *client.Client) (*core.Experiment, client.ExprStats, error) {
			res, err := c.Difference(ctx, w.after, w.base, nil)
			return res, client.ExprStats{}, err
		},
		check: func(res *core.Experiment, _ client.ExprStats) error {
			want, err := core.Difference(w.after, w.base, oracle)
			if err != nil {
				return err
			}
			if !core.AlmostEqual(res, want, eps) {
				return errMismatch
			}
			return nil
		},
	}, nil
}

var (
	errParseMiss = errors.New("parse cache misses differ from the request count")
	errParseHit  = errors.New("parse cache hits differ from the request count")
)

func (w *regressInline) gate(d promtext.Metrics, n int, _ int64) error {
	if m := counter(d, "cube_parse_cache_misses_total"); m != n {
		return fmt.Errorf("regress-inline: %w: %d misses for %d requests", errParseMiss, m, n)
	}
	if h := counter(d, "cube_parse_cache_hits_total"); h != n {
		return fmt.Errorf("regress-inline: %w: %d hits for %d requests", errParseHit, h, n)
	}
	return nil
}

func (w *regressInline) replaySetup(ctx context.Context, s *stack, dir string, rec *recorder) error {
	w.rAfter = w.after0.Clone()
	w.rFresh = newFreshOperand(w.rAfter, w.seed)
	var buf bytes.Buffer
	if err := cubexml.Write(&buf, w.base); err != nil {
		return err
	}
	var err error
	w.rBase, err = parseMaster(buf.Bytes())
	return err
}

func (w *regressInline) replay(ctx context.Context, rec *recorder, i int) error {
	w.rFresh.step(i)
	// Client: encode both operands.
	var a, b bytes.Buffer
	rec.begin("client.encode")
	err := cubexml.Write(&a, w.rAfter)
	if err == nil {
		err = cubexml.Write(&b, w.base)
	}
	rec.end()
	if err != nil {
		return err
	}
	// Server: operand 0 misses the parse cache and is parsed; operand 1
	// hits. The cache's compaction and clones get no span.
	rec.begin("cubexml.read")
	master, err := cubexml.ReadBytes(ctx, a.Bytes(), cubexml.ReadOptions{Limits: cubexml.DefaultLimits})
	rec.end()
	if err != nil {
		return err
	}
	master.CompactSeverities()
	master.MetaDigest()
	after, base := master.Clone(), w.rBase.Clone()
	opts, root := traceOpts()
	op := rec.begin("core.op")
	res, err := core.Difference(after, base, opts)
	rec.end()
	root.End()
	if err != nil {
		return err
	}
	rec.coreSplit(op, root)
	return replayTail(ctx, rec, res)
}

// --- digest-large -----------------------------------------------------------

// digestLarge is the egress path: two large runs are stored once, and
// each request names them by digest. Nothing is uploaded or parsed per
// request; the store read, its verification, the parse-cache hit and
// clone, the kernel, the result write and the client decode remain.
type digestLarge struct {
	seed        int64
	sz          size
	after, base *core.Experiment
	da, db      string
	ref         *core.Experiment

	rStore   *store.Store
	rMasters masters
}

func (w *digestLarge) clients() int   { return 1 }
func (w *digestLarge) setupReps() int { return 5 }

func (w *digestLarge) inputs() error {
	w.after = synthetic(w.sz, 3, w.seed)
	w.base = synthetic(w.sz, 0, w.seed)
	var err error
	w.ref, err = core.Difference(w.after, w.base, oracle)
	return err
}

func (w *digestLarge) setup(ctx context.Context, s *stack) (func() error, error) {
	c := s.client()
	var err error
	if w.da, err = c.Put(ctx, w.after); err != nil {
		return nil, err
	}
	w.db, err = c.Put(ctx, w.base)
	return nil, err
}

func (w *digestLarge) warm(ctx context.Context, s *stack, next *atomic.Int64) error {
	return runUntimed(ctx, s, w, next, 3)
}

func (w *digestLarge) prepare(int) (*request, error) {
	return &request{
		send: func(ctx context.Context, c *client.Client) (*core.Experiment, client.ExprStats, error) {
			res, err := c.DifferenceByDigest(ctx, w.da, w.db, nil)
			return res, client.ExprStats{}, err
		},
		check: func(res *core.Experiment, _ client.ExprStats) error {
			if !core.AlmostEqual(res, w.ref, eps) {
				return errMismatch
			}
			return nil
		},
	}, nil
}

var (
	errDigestParsed   = errors.New("digest operands were parsed after setup")
	errDigestUploaded = errors.New("experiment bytes were uploaded after setup")
)

func (w *digestLarge) gate(d promtext.Metrics, n int, reqBytes int64) error {
	// A by-digest request body is two references, well under 1 KiB.
	if reqBytes > int64(n)<<10 {
		return fmt.Errorf("digest-large: %w: %d request bytes for %d requests", errDigestUploaded, reqBytes, n)
	}
	if m := counter(d, "cube_parse_cache_misses_total"); m != 0 {
		return fmt.Errorf("digest-large: %w: %d parse cache misses", errDigestParsed, m)
	}
	if p := counter(d, "cube_store_put_total"); p != 0 {
		return fmt.Errorf("digest-large: %w: %d store puts", errDigestUploaded, p)
	}
	if g := counter(d, "cube_store_get_hits_total"); g != 2*n {
		return fmt.Errorf("digest-large: %d store reads for %d requests, want 2 each", g, n)
	}
	return nil
}

func (w *digestLarge) replaySetup(ctx context.Context, s *stack, dir string, rec *recorder) error {
	var err error
	w.rStore, w.rMasters, err = replayStore(ctx, dir, rec, w.after, w.base)
	return err
}

// encodeDigestRefs is what the client sends for a by-digest operator: a
// multipart body of digest references.
func encodeDigestRefs(digests ...string) ([]byte, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, d := range digests {
		fw, err := mw.CreateFormFile("operand", "operand.ref")
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(fw, "digest:%s", d)
	}
	return buf.Bytes(), mw.Close()
}

func (w *digestLarge) replay(ctx context.Context, rec *recorder, i int) error {
	rec.begin("client.encode")
	_, err := encodeDigestRefs(w.da, w.db)
	rec.end()
	if err != nil {
		return err
	}
	var ops [2]*core.Experiment
	for k, d := range []string{w.da, w.db} {
		m, err := replayStoreGet(ctx, rec, w.rStore, w.rMasters, d)
		if err != nil {
			return err
		}
		ops[k] = m.Clone()
	}
	opts, root := traceOpts()
	op := rec.begin("core.op")
	res, err := core.Difference(ops[0], ops[1], opts)
	rec.end()
	root.End()
	if err != nil {
		return err
	}
	rec.coreSplit(op, root)
	return replayTail(ctx, rec, res)
}

// --- series-expr ------------------------------------------------------------

// seriesExpr is the analyst's run-series question, asked server-side: two
// clients each send difference(mean(4-run subset), mean(fixed 4-run
// baseline)) over seriesRuns stored runs. No subset repeats within a run,
// so the root always misses the expression cache while the baseline mean,
// the shared lowered blocks and the integration fast path hit.
type seriesExpr struct {
	seed     int64
	sz       size
	runs     []*core.Experiment
	digests  []string
	meanBase *core.Experiment
	subsets  [][]int
	cached   atomic.Int64 // responses answered from the root cache

	rStore   *store.Store
	rMasters masters
	rEngine  *expr.Engine
}

// seriesRuns is the number of stored runs. Its C(24,4) - 1 = 10625
// subsets outlast a run at several times today's request rate
// (TestSeriesSubsetsOutlastTheRun).
const seriesRuns = 24

var seriesBaseline = []int{0, 1, 2, 3}

// The series-expr warm-up runs at most seriesWarmRounds batches of
// seriesWarmBatch requests.
const (
	seriesWarmRounds = 64
	seriesWarmBatch  = 8
)

func (w *seriesExpr) clients() int   { return 2 }
func (w *seriesExpr) setupReps() int { return 5 }

func (w *seriesExpr) inputs() error {
	w.runs = nil
	for k := 0; k < seriesRuns; k++ {
		w.runs = append(w.runs, synthetic(w.sz, 3*k, w.seed))
	}
	var err error
	w.meanBase, err = core.Mean(oracle, w.pick(seriesBaseline)...)
	w.subsets = subsetSequence(seriesRuns, len(seriesBaseline), seriesBaseline, w.seed)
	return err
}

func (w *seriesExpr) setup(ctx context.Context, s *stack) (func() error, error) {
	c := s.client()
	w.digests = nil
	for _, e := range w.runs {
		d, err := c.Put(ctx, e)
		if err != nil {
			return nil, err
		}
		w.digests = append(w.digests, d)
	}
	return nil, nil
}

func (w *seriesExpr) pick(idx []int) []*core.Experiment {
	out := make([]*core.Experiment, len(idx))
	for i, k := range idx {
		out[i] = w.runs[k]
	}
	return out
}

// warm runs requests until the expression cache evicts, so its memory
// and eviction work are at steady state when timing starts.
func (w *seriesExpr) warm(ctx context.Context, s *stack, next *atomic.Int64) error {
	for round := 0; round < seriesWarmRounds; round++ {
		if err := runUntimed(ctx, s, w, next, seriesWarmBatch); err != nil {
			return err
		}
		m, err := s.scrape(ctx)
		if err != nil {
			return err
		}
		if counter(m, "cube_expr_cache_evictions_total") > 0 {
			w.cached.Store(0)
			return nil
		}
	}
	return errors.New("series-expr: warm-up did not fill the expression cache")
}

func (w *seriesExpr) prepare(i int) (*request, error) {
	doc, err := w.doc(i)
	if err != nil {
		return nil, err
	}
	subset := w.subsets[i]
	return &request{
		send: func(ctx context.Context, c *client.Client) (*core.Experiment, client.ExprStats, error) {
			return c.ExprRaw(ctx, doc, nil)
		},
		check: func(res *core.Experiment, st client.ExprStats) error {
			if st.Cached {
				w.cached.Add(1)
			}
			m, err := core.Mean(oracle, w.pick(subset)...)
			if err != nil {
				return err
			}
			want, err := core.Difference(m, w.meanBase, oracle)
			if err != nil {
				return err
			}
			if !core.AlmostEqual(res, want, eps) {
				return errMismatch
			}
			return nil
		},
	}, nil
}

var (
	errRootCached  = errors.New("a root result came from the expression cache")
	errBaselineHit = errors.New("the baseline mean did not hit the expression cache on every request")
)

func (w *seriesExpr) gate(d promtext.Metrics, n int, _ int64) error {
	if c := w.cached.Load(); c != 0 {
		return fmt.Errorf("series-expr: %w: %d of %d requests", errRootCached, c, n)
	}
	if h := counter(d, "cube_expr_cache_hits_total"); h != n {
		return fmt.Errorf("series-expr: %w: %d hits for %d requests", errBaselineHit, h, n)
	}
	return nil
}

func (w *seriesExpr) replaySetup(ctx context.Context, s *stack, dir string, rec *recorder) error {
	var err error
	if w.rStore, w.rMasters, err = replayStore(ctx, dir, rec, w.runs...); err != nil {
		return err
	}
	w.rEngine = expr.NewEngine(expr.Config{CacheBytes: s.cfg.ExprCacheBytes})
	// The server's cache holds the baseline mean before any timed
	// request; evaluating request 0 puts it in the replay engine's.
	_, err = w.eval(ctx, &recorder{}, 0)
	return err
}

// wireNode is the /expr document shape the endpoint accepts.
type wireNode struct {
	Op   string      `json:"op,omitempty"`
	Args []*wireNode `json:"args,omitempty"`
	Ref  string      `json:"ref,omitempty"`
}

// doc is the /expr document of request i: the live request sends it, the
// replay parses it.
func (w *seriesExpr) doc(i int) ([]byte, error) {
	if i >= len(w.subsets) {
		return nil, fmt.Errorf("series-expr: all %d subsets used; shorten the run", len(w.subsets))
	}
	mean := func(idx []int) *wireNode {
		n := &wireNode{Op: "mean"}
		for _, r := range idx {
			n.Args = append(n.Args, &wireNode{Ref: "digest:" + w.digests[r]})
		}
		return n
	}
	return json.Marshal(&wireNode{Op: "difference", Args: []*wireNode{mean(w.subsets[i]), mean(seriesBaseline)}})
}

// eval is request i up to the result: the client builds the document,
// the server parses, plans and evaluates it with leaves read from the
// store through the parse cache. Spans go to rec.
func (w *seriesExpr) eval(ctx context.Context, rec *recorder, i int) (*core.Experiment, error) {
	rec.begin("client.encode")
	doc, err := w.doc(i)
	rec.end()
	if err != nil {
		return nil, err
	}
	opts, root := traceOpts()
	ctx = obs.ContextWithSpan(ctx, root)
	ev := rec.begin("expr.eval")
	defer rec.end()
	ex, err := expr.Parse(doc, expr.Limits{})
	if err != nil {
		return nil, err
	}
	plan, err := ex.Plan(nil)
	if err != nil {
		return nil, err
	}
	res, _, err := w.rEngine.Eval(ctx, plan, opts, func(ctx context.Context, leaf expr.Leaf) (*core.Experiment, error) {
		return replayStoreGet(ctx, rec, w.rStore, w.rMasters, leaf.Digest)
	})
	root.End()
	rec.coreSplit(ev, root)
	return res, err
}

func (w *seriesExpr) replay(ctx context.Context, rec *recorder, i int) error {
	res, err := w.eval(ctx, rec, i)
	if err != nil {
		return err
	}
	return replayTail(ctx, rec, res)
}
