// Package server exposes the CUBE algebra as an HTTP service — the paper's
// closing suggestion ("CUBE can be easily integrated with a Grid
// environment by exposing its functionality as a … Grid service")
// translated to a plain stdlib web service: clients upload experiments in
// the CUBE XML format and receive derived experiments (or renderings) back.
// Because the algebra is closed, the service composes with itself: the
// output of one request is a valid input for the next.
//
// The service is hardened for production use: every request passes through
// a middleware stack (structured logging, panic recovery, a weighted
// concurrency limiter, a wall-clock timeout, and body-size caps — see
// middleware.go), operand parsing enforces the cubexml structural limits,
// and Serve (serve.go) adds connection timeouts and graceful shutdown.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime/multipart"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"cube/internal/cli"
	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/display"
	"cube/internal/expr"
	"cube/internal/obs"
	"cube/internal/report"
	"cube/internal/selfcube"
	"cube/internal/store"
)

// MaxUploadBytes is the default bound on one request's total upload size.
const MaxUploadBytes = 64 << 20

// errTooLarge marks operand-guard violations that should map to
// 413 Request Entity Too Large rather than 400.
var errTooLarge = errors.New("request exceeds limits")

// Handler returns the service's HTTP handler with DefaultConfig:
//
//	POST /op/{difference|merge|mean|sum|min|max}
//	    multipart form, ordered file fields "operand"; optional query
//	    params callmatch=callee|callee+line, system=auto|collapse|copy-first.
//	    Response: the derived experiment as CUBE XML.
//	POST /op/{flatten|prune|extract}
//	    one "operand"; prune: ?metric=<path>&threshold=<frac>;
//	    extract: repeated ?metric=<path>.
//	POST /expr
//	    evaluate a whole algebra DAG server-side: an application/json
//	    body (or a multipart "expr" field plus ordered "operand" files)
//	    carrying {"op":...,"args":[...]} nodes with digest:/operand:
//	    leaves. Identical subtrees evaluate once and results are served
//	    from the expression-digest cache on repeat. See expr.go.
//	POST /view
//	    one "operand"; ?metric=<name>&mode=absolute|percent&flat=1.
//	    Response: the text rendering of the three-tree display.
//	POST /info
//	    one or two "operand"s; with two, includes the structural
//	    comparison. Response: plain text.
//	PUT  /experiments/{sha256}
//	    commit a CUBE XML document in the content-addressed store
//	    (idempotent; body must hash to the URL digest). Requires a
//	    configured store (Config.Store / cube-server -store-dir).
//	GET  /experiments/{sha256}   fetch the stored document (HEAD: stat)
//
// With a store configured, every "operand" part may instead carry the
// reference `digest:<sha256>` to use a stored experiment — upload once,
// reference forever.
//
//	GET  /healthz      liveness (exempt from the concurrency limiter)
//	GET  /readyz       readiness: 503 + JSON while the store is read-only
//	GET  /metrics      Prometheus text exposition of the obs registry
//
// and, only with Config.Debug (cube-server -debug):
//
//	GET  /debug/vars    JSON snapshot of the metrics + memstats
//	GET  /debug/pprof/*  net/http/pprof profiles
//	GET  /debug/events  recent wide events as NDJSON
//	                    (?kind= &route= &status= &class=5xx &min_duration_ms= &limit=)
//	GET  /debug/store   experiment-store inventory as JSON
//	GET  /debug/slo     per-route SLO burn report as JSON
//	GET  /debug/self    self-telemetry run series: the snapshots the server
//	                    took of itself (digests, sizes, times) as JSON
//	GET  /debug/self/experiment.xml  the newest self-snapshot as CUBE XML
//	POST /debug/self/snapshot        take a snapshot now (also needs
//	                    Config.SelfInterval/SelfKeep and a store)
//	GET  /debug/traces       recent request traces (also needs tracing configured)
//	GET  /debug/traces/{id}  one trace: Chrome trace-event JSON, ?format=tree for text
func Handler() http.Handler {
	return NewHandler(nil)
}

// NewHandler returns the service handler with the given configuration
// (nil means DefaultConfig). All limits, the logger, and the metrics
// registry come from cfg. Operator and codec instrumentation
// (core.Instrument, cubexml.Instrument) is pointed at the same registry —
// both are process-wide seams, so the last handler created wins.
func NewHandler(cfg *Config) http.Handler {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	s := &service{cfg: cfg, reg: cfg.Metrics}
	if s.reg == nil {
		s.reg = obs.Default
	}
	if cfg.ParseCacheBytes > 0 {
		s.cache = newParseCache(cfg.ParseCacheBytes, cfg.XML, cfg.ReadEngine, s.reg)
	}
	s.expr = expr.NewEngine(expr.Config{CacheBytes: cfg.ExprCacheBytes, Metrics: s.reg})
	core.Instrument(s.reg)
	cubexml.Instrument(s.reg)
	s.events = cfg.Events
	if s.events == nil {
		s.events = obs.NewEventSink(cfg.EventRingSize)
	}
	// The sink doubles as the process-wide seam (obs.SetEventSink), so
	// store lifecycle transitions that happen outside any request — LRU
	// evictions from recovery, degraded-mode probes — land in the same
	// ring the requests do. Like the instrumentation seams above, the
	// last handler created wins.
	obs.SetEventSink(s.events)
	if cfg.SLOAvailability > 0 || cfg.SLOLatency > 0 {
		s.slo = obs.NewSLOTracker(obs.SLOConfig{
			Window:             cfg.SLOWindow,
			LatencyThreshold:   cfg.SLOLatency,
			LatencyTarget:      cfg.SLOLatencyTarget,
			AvailabilityTarget: cfg.SLOAvailability,
			Logger:             cfg.Logger,
			Registry:           s.reg,
		})
	}
	if cfg.TraceSampleRate > 0 || cfg.TraceSlow > 0 {
		s.tracer = obs.NewTracer(obs.TracerOptions{
			SampleRate: cfg.TraceSampleRate,
			Slow:       cfg.TraceSlow,
			Logger:     cfg.Logger,
		})
	}
	// Go runtime estimates (GC pauses, scheduler latency, heap) join the
	// registry as cube_go_* series; each /metrics scrape and each
	// self-telemetry snapshot samples them first, so the exposition is
	// always current without a background poller.
	s.gor = obs.NewGoRuntimeSampler(s.reg)
	if cfg.Store != nil && cfg.selfEnabled() {
		process := cfg.SelfProcess
		if process == "" {
			process = "cube-server"
		}
		snap, err := selfcube.NewSnapshotter(selfcube.SnapshotterConfig{
			Collector: selfcube.NewCollector(s.reg, s.tracer, s.gor, process),
			Store:     cfg.Store,
			Interval:  cfg.SelfInterval,
			Keep:      cfg.SelfKeep,
			Logger:    cfg.Logger,
			Metrics:   s.reg,
		})
		if err != nil {
			// Config.Validate rejects every input that can get here; a
			// programmatic caller who skipped it gets the loud version.
			panic(err)
		}
		s.self = snap
		cfg.self = snap // backpointer: Serve starts the loop, tests reach the series
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if cfg.Store != nil {
		mux.HandleFunc("PUT /experiments/{digest}", s.handleExperimentPut)
		mux.HandleFunc("GET /experiments/{digest}", s.handleExperimentGet)
	}
	mux.HandleFunc("POST /op/{op}", s.handleOp)
	mux.HandleFunc("POST /expr", s.handleExpr)
	mux.HandleFunc("POST /view", s.handleView)
	mux.HandleFunc("POST /report", s.handleReport)
	mux.HandleFunc("POST /info", s.handleInfo)
	metricsH := s.reg.MetricsHandler()
	mux.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.gor.Sample()
		metricsH.ServeHTTP(w, r)
	}))
	// Everything under /debug/* is behind one gate (Config.Debug, with
	// EnablePprof as the deprecated synonym): the routes expose internals
	// and cost CPU, so production deployments opt in. Disabled debug
	// routes 404 like any unknown path.
	if cfg.debugEnabled() {
		mux.Handle("GET /debug/vars", s.reg.VarsHandler())
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("GET /debug/events", s.handleEvents)
		mux.HandleFunc("GET /debug/store", s.handleStore)
		mux.HandleFunc("GET /debug/slo", s.handleSLO)
		mux.HandleFunc("GET /debug/self", s.handleSelf)
		if s.self != nil {
			mux.HandleFunc("GET /debug/self/experiment.xml", s.handleSelfLatest)
			mux.HandleFunc("POST /debug/self/snapshot", s.handleSelfSnapshot)
		}
		if s.tracer != nil {
			mux.HandleFunc("GET /debug/traces", s.handleTraceList)
			mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
		}
	}
	return s.wrap(mux)
}

func (s *service) handleReport(w http.ResponseWriter, r *http.Request) {
	operands, ok := s.operands(w, r)
	if !ok {
		return
	}
	if len(operands) != 1 {
		httpError(w, r, http.StatusBadRequest, "report needs exactly 1 operand")
		return
	}
	e := operands[0]
	var sel display.Selection
	if name := r.URL.Query().Get("metric"); name != "" {
		if sel.Metric = e.FindMetric(name); sel.Metric == nil {
			sel.Metric = e.FindMetricByName(name)
		}
		if sel.Metric == nil {
			httpError(w, r, http.StatusBadRequest, "metric %q not found", name)
			return
		}
		sel.MetricCollapsed = true
	}
	var buf bytes.Buffer
	if err := report.Write(&buf, e, &report.Options{Selection: sel}); err != nil {
		httpError(w, r, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	buf.WriteTo(w)
}

// handleTraceList summarizes the tracer's retained ring, newest first.
// Each entry's ID is the request's X-Request-ID, so a caller holding that
// header fetches its trace from /debug/traces/{id}.
func (s *service) handleTraceList(w http.ResponseWriter, r *http.Request) {
	type summary struct {
		ID         string  `json:"id"`
		Name       string  `json:"name"`
		Start      string  `json:"start"`
		DurationMS float64 `json:"duration_ms"`
		Spans      int     `json:"spans"`
		Sampled    bool    `json:"sampled"`
	}
	traces := s.tracer.Traces()
	out := make([]summary, 0, len(traces))
	for _, tr := range traces {
		out = append(out, summary{
			ID:         tr.ID(),
			Name:       tr.Root().Name(),
			Start:      tr.Start().UTC().Format(time.RFC3339Nano),
			DurationMS: float64(tr.Duration()) / float64(time.Millisecond),
			Spans:      tr.SpanCount(),
			Sampled:    tr.Sampled(),
		})
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(out)
}

// handleTraceGet serves one retained trace: Chrome trace-event JSON by
// default (load into Perfetto / chrome://tracing), a plain-text span tree
// with ?format=tree.
func (s *service) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := s.tracer.Trace(id)
	if tr == nil {
		httpError(w, r, http.StatusNotFound, "no retained trace %q", id)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		obs.WriteChromeTrace(w, tr)
	case "tree":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		tr.WriteTree(w)
	default:
		httpError(w, r, http.StatusBadRequest, "unknown format %q (want chrome or tree)", format)
	}
}

// httpError writes a plain-text error response, stamped with the request
// ID so a client can quote the failing request when reporting problems.
func httpError(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if id := obs.RequestID(r.Context()); id != "" {
		msg += "\nrequest-id: " + id
	}
	http.Error(w, msg, code)
}

// operands parses the request's operand files and writes the appropriate
// error response on failure: 413 for size-guard violations, 404 for a
// digest reference the store does not hold, 400 otherwise.
func (s *service) operands(w http.ResponseWriter, r *http.Request) ([]*core.Experiment, bool) {
	ops, err := s.readOperands(r)
	if err != nil {
		if r.Context().Err() != nil {
			// The request deadline fired mid-parse; the timeout
			// middleware already answered for us.
			return nil, false
		}
		code := http.StatusBadRequest
		var mbe *http.MaxBytesError
		var miss *storeMissError
		if errors.As(err, &mbe) || errors.Is(err, errTooLarge) || errors.Is(err, cubexml.ErrLimit) ||
			strings.Contains(err.Error(), "request body too large") {
			code = http.StatusRequestEntityTooLarge
		} else if errors.As(err, &miss) {
			code = http.StatusNotFound
		}
		httpError(w, r, code, "%v", err)
		return nil, false
	}
	return ops, true
}

// readOperands parses the multipart "operand" parts, in form order,
// enforcing the operand-count, per-file-byte, and XML structural caps and
// abandoning work when the request context is done. A part whose body is
// `digest:<sha256>` resolves from the experiment store instead; every
// referenced blob stays pinned until resolution of all operands is
// complete, so budget-pressure eviction cannot race an in-flight request.
func (s *service) readOperands(r *http.Request) ([]*core.Experiment, error) {
	// Spill large uploads to disk instead of holding them in memory; the
	// total is already bounded by the MaxBytesReader middleware.
	if err := r.ParseMultipartForm(8 << 20); err != nil {
		return nil, fmt.Errorf("parsing multipart form: %w", err)
	}
	var files []*multipart.FileHeader
	if r.MultipartForm != nil {
		files = r.MultipartForm.File["operand"]
	}
	if len(files) == 0 {
		return nil, fmt.Errorf(`no "operand" files in request`)
	}
	if s.cfg.MaxOperands > 0 && len(files) > s.cfg.MaxOperands {
		return nil, fmt.Errorf("%w: %d operands exceed the limit of %d", errTooLarge, len(files), s.cfg.MaxOperands)
	}
	stats := statsFrom(r.Context())
	ev := obs.EventFromContext(r.Context())
	var pinned []store.Digest
	if s.cfg.Store != nil {
		defer func() {
			for _, d := range pinned {
				s.cfg.Store.Unpin(d)
			}
		}()
	}
	var out []*core.Experiment
	for i, fh := range files {
		if err := r.Context().Err(); err != nil {
			return nil, err
		}
		if s.cfg.MaxFileBytes > 0 && fh.Size > s.cfg.MaxFileBytes {
			return nil, fmt.Errorf("%w: operand %d is %d bytes (per-file limit %d)", errTooLarge, i, fh.Size, s.cfg.MaxFileBytes)
		}
		f, err := fh.Open()
		if err != nil {
			return nil, fmt.Errorf("operand %d: %w", i, err)
		}
		// Peek at the head of the part: digest references are short
		// (`digest:` + 64 hex chars) and must fit the peek buffer whole;
		// literal CUBE XML starts with '<' and streams on unharmed.
		peek := make([]byte, digestRefPeek)
		n, rerr := io.ReadFull(f, peek)
		if rerr != nil && rerr != io.ErrUnexpectedEOF && rerr != io.EOF {
			f.Close()
			return nil, fmt.Errorf("operand %d: %w", i, rerr)
		}
		if d, ok := parseDigestRef(peek[:n]); ok && n < len(peek) {
			f.Close()
			e, size, err := s.resolveDigestOperand(r.Context(), i, d, &pinned)
			if err != nil {
				return nil, err
			}
			stats.add(size)
			ev.AddOperand("digest", size)
			out = append(out, e)
			continue
		}
		stats.add(fh.Size)
		ev.AddOperand("inline", fh.Size)
		body := io.MultiReader(bytes.NewReader(peek[:n]), f)
		var e *core.Experiment
		if s.cache != nil {
			// The cache needs the full bytes for content addressing; the
			// size is already bounded by MaxFileBytes and MaxBytesReader.
			data, rerr := io.ReadAll(body)
			f.Close()
			if rerr != nil {
				return nil, fmt.Errorf("operand %d: %w", i, rerr)
			}
			d := store.DigestOf(data)
			if err := s.verifyDigest(r.Context(), fmt.Sprintf("operand %d (%s)", i, fh.Filename),
				fh.Header.Get("Content-Digest"), d, len(data)); err != nil {
				return nil, err
			}
			e, err = s.cache.get(r.Context(), d, data)
		} else {
			e, err = cubexml.ReadWith(r.Context(), body, cubexml.ReadOptions{Limits: s.cfg.XML, Engine: s.cfg.ReadEngine})
			f.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("operand %d: %w", i, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// verifyDigest checks an upload's Content-Digest header (RFC 9530, sent
// by the bundled client) against got, the digest the server computed over
// the received size bytes — trust but verify. The caller hashes each
// upload once and passes the same digest on as the parse-cache key. A
// mismatch means corruption somewhere between the sender's hashing and
// us. By default it is logged and counted and the bytes are processed as
// received (the cache keys on the server-computed digest regardless);
// with Config.DigestStrict the mismatch is returned as an error and the
// request is rejected instead.
func (s *service) verifyDigest(ctx context.Context, what, header string, got store.Digest, size int) error {
	if header == "" {
		return nil
	}
	want, ok := parseContentDigest(header)
	if !ok {
		return nil // no sha-256 entry, or unparseable: nothing to check against
	}
	if got == want {
		return nil
	}
	if s.reg != nil {
		s.reg.Counter("cube_digest_mismatch_total").Inc()
	}
	s.logError(ctx, "content digest mismatch",
		slog.String("what", what),
		slog.Bool("strict", s.cfg.DigestStrict),
		slog.Int("bytes", size))
	if s.cfg.DigestStrict {
		return fmt.Errorf("%s: Content-Digest header does not match the received bytes", what)
	}
	return nil
}

func options(r *http.Request) (*core.Options, error) {
	cm := r.URL.Query().Get("callmatch")
	if cm == "" {
		cm = "callee"
	}
	sys := r.URL.Query().Get("system")
	if sys == "" {
		sys = "auto"
	}
	return cli.ParseOptions(cm, sys)
}

// ctxDone reports whether the request deadline or cancellation fired;
// handlers call it between pipeline stages so a timed-out request stops
// burning CPU on operators whose response will be discarded anyway.
func ctxDone(w http.ResponseWriter, r *http.Request) bool {
	if err := r.Context().Err(); err != nil {
		httpError(w, r, http.StatusServiceUnavailable, "request cancelled: %v", err)
		return true
	}
	return false
}

// writeExperiment encodes the result into a buffer first so a successful
// status line always carries a complete document (and Content-Length);
// encoding failures become a clean 500 instead of a corrupted 200.
func (s *service) writeExperiment(w http.ResponseWriter, r *http.Request, e *core.Experiment) {
	var buf bytes.Buffer
	if err := cubexml.WriteContext(r.Context(), &buf, e); err != nil {
		s.logError(r.Context(), "encoding result experiment",
			slog.String("title", e.Title), slog.Any("err", err))
		httpError(w, r, http.StatusInternalServerError, "encoding result: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	buf.WriteTo(w)
}

func (s *service) handleOp(w http.ResponseWriter, r *http.Request) {
	opName := r.PathValue("op")
	opts, err := options(r)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	// Parent the operator's span tree under the request's root span (nil
	// when tracing is off or the request was not sampled — the operator
	// then falls back to the process-wide tracer, which the server leaves
	// unset). The request's wide event rides along so the kernel layer
	// can attribute shards, tuples, cells, and compute time to it.
	opts.Trace = obs.SpanFromContext(r.Context())
	opts.Event = obs.EventFromContext(r.Context())
	operands, ok := s.operands(w, r)
	if !ok {
		return
	}
	if ctxDone(w, r) {
		return
	}
	binaryOnly := func() bool {
		if len(operands) != 2 {
			httpError(w, r, http.StatusBadRequest, "%s needs exactly 2 operands, got %d", opName, len(operands))
			return false
		}
		return true
	}
	unaryOnly := func() bool {
		if len(operands) != 1 {
			httpError(w, r, http.StatusBadRequest, "%s needs exactly 1 operand, got %d", opName, len(operands))
			return false
		}
		return true
	}
	var result *core.Experiment
	switch opName {
	case "difference":
		if !binaryOnly() {
			return
		}
		result, err = core.Difference(operands[0], operands[1], opts)
	case "merge":
		result, err = core.MergeAll(opts, operands...)
	case "mean":
		result, err = core.Mean(opts, operands...)
	case "sum":
		result, err = core.Sum(opts, operands...)
	case "min":
		result, err = core.Min(opts, operands...)
	case "max":
		result, err = core.Max(opts, operands...)
	case "flatten":
		if !unaryOnly() {
			return
		}
		result, err = core.Flatten(operands[0])
	case "extract":
		if !unaryOnly() {
			return
		}
		metrics := r.URL.Query()["metric"]
		result, err = core.ExtractMetrics(operands[0], metrics...)
	case "prune":
		if !unaryOnly() {
			return
		}
		threshold, perr := strconv.ParseFloat(r.URL.Query().Get("threshold"), 64)
		if perr != nil {
			httpError(w, r, http.StatusBadRequest, "bad threshold: %v", perr)
			return
		}
		result, err = core.Prune(operands[0], r.URL.Query().Get("metric"), threshold)
	default:
		httpError(w, r, http.StatusNotFound, "unknown operation %q", opName)
		return
	}
	if err != nil {
		httpError(w, r, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if ctxDone(w, r) {
		return
	}
	s.writeExperiment(w, r, result)
}

func (s *service) handleView(w http.ResponseWriter, r *http.Request) {
	operands, ok := s.operands(w, r)
	if !ok {
		return
	}
	if len(operands) != 1 {
		httpError(w, r, http.StatusBadRequest, "view needs exactly 1 operand")
		return
	}
	if ctxDone(w, r) {
		return
	}
	e := operands[0]
	var err error
	if r.URL.Query().Get("flat") == "1" {
		if e, err = core.Flatten(e); err != nil {
			httpError(w, r, http.StatusUnprocessableEntity, "%v", err)
			return
		}
	}
	sel := display.Selection{MetricCollapsed: true, CNodeCollapsed: true}
	if name := r.URL.Query().Get("metric"); name != "" {
		if sel.Metric = e.FindMetric(name); sel.Metric == nil {
			sel.Metric = e.FindMetricByName(name)
		}
		if sel.Metric == nil {
			httpError(w, r, http.StatusBadRequest, "metric %q not found", name)
			return
		}
	}
	if len(e.CallRoots()) > 0 {
		sel.CNode = e.CallRoots()[0]
	}
	cfg := &display.Config{HideZero: true}
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "absolute":
	case "percent":
		cfg.Mode = display.Percent
	default:
		httpError(w, r, http.StatusBadRequest, "unknown mode %q", mode)
		return
	}
	out, err := display.RenderString(e, sel, cfg)
	if err != nil {
		httpError(w, r, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if topStr := r.URL.Query().Get("top"); topStr != "" {
		n, err := strconv.Atoi(topStr)
		if err != nil || n <= 0 {
			httpError(w, r, http.StatusBadRequest, "bad top parameter %q", topStr)
			return
		}
		spots, err := display.HotspotsString(e, sel, cfg, n)
		if err != nil {
			httpError(w, r, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		out += "\n" + spots
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, out)
}

func (s *service) handleInfo(w http.ResponseWriter, r *http.Request) {
	operands, ok := s.operands(w, r)
	if !ok {
		return
	}
	if len(operands) > 2 {
		httpError(w, r, http.StatusBadRequest, "info accepts 1 or 2 operands")
		return
	}
	var sb strings.Builder
	for _, e := range operands {
		fmt.Fprintf(&sb, "%q: %d metrics, %d call paths, %d threads, %d tuples\n",
			e.Title, len(e.Metrics()), len(e.CallNodes()), len(e.Threads()), e.NonZeroCount())
		if e.Derived {
			fmt.Fprintf(&sb, "  derived by %q from %v\n", e.Operation, e.Parents)
		}
	}
	if len(operands) == 2 {
		rep, err := core.StructuralDiff(operands[0], operands[1], nil)
		if err != nil {
			httpError(w, r, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		sb.WriteString(rep.Summary())
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, sb.String())
}
