package server

// POST /expr — the expression endpoint: one request evaluates a whole
// algebra DAG server-side instead of one operator per round-trip.
//
// Body forms:
//
//	application/json
//	    the expression document itself; leaves must be digest refs
//	multipart/form-data
//	    field "expr" carries the document; ordered "operand" files carry
//	    inline operands addressed as `operand:<index>` (a file whose body
//	    is `digest:<sha256>` behaves like a digest leaf, as on /op)
//
// The document is a node tree — `{"op":"mean","args":[...]}` with
// `{"ref":"digest:<sha256>"}` / `{"ref":"operand:<i>"}` leaves — or
// `{"defs":{...},"expr":{...}}` naming shared subexpressions (see
// internal/expr). `{"defs":{...},"roots":[...]}` evaluates several
// expressions over one shared DAG in a single request; the response is
// then multipart/mixed with one CUBE XML part per root, in order, plus an
// X-Cube-Expr-Roots count header. Query params callmatch= and system=
// select integration options exactly as on /op/{op}.
//
// Identical subtrees are evaluated once (CSE), evaluated subexpressions
// land in a byte-budgeted expression-digest result cache, and identical
// concurrent requests share one evaluation. The response carries
// X-Cube-Expr-Nodes, X-Cube-Expr-Cse-Hits, and X-Cube-Expr-Cache
// (hit|miss) headers so callers — and the expr-smoke gate — can observe
// the sharing without scraping /metrics.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"

	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/expr"
	"cube/internal/obs"
	"cube/internal/store"
)

// exprOperand is one inline multipart operand of an expression request:
// either literal CUBE XML bytes or a digest reference, both reduced to
// the content digest the planner keys leaves by.
type exprOperand struct {
	data   []byte // literal bytes; nil for a digest reference
	digest store.Digest
	isRef  bool
}

func (s *service) handleExpr(w http.ResponseWriter, r *http.Request) {
	opts, err := options(r)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	opts.Trace = obs.SpanFromContext(r.Context())
	ev := obs.EventFromContext(r.Context())
	opts.Event = ev

	src, operands, err := s.readExprBody(r)
	if err != nil {
		s.exprError(w, r, err, http.StatusBadRequest)
		return
	}

	// Parse, validate, and canonicalize under an expr.plan span: the
	// plan's node count, CSE hits, and depth are the attributes that
	// explain the evaluation that follows.
	sp, _ := obs.StartSpanContext(r.Context(), "expr.plan")
	plan, err := s.planExpr(src, operands)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		s.exprError(w, r, err, http.StatusBadRequest)
		return
	}
	sp.SetAttr("nodes", len(plan.Nodes))
	sp.SetAttr("cse_hits", plan.CSEHits)
	sp.SetAttr("depth", plan.Depth)
	sp.End()

	// Every digest leaf is pinned when it resolves and stays pinned until
	// evaluation is over, so budget-pressure eviction cannot pull an
	// operand out from under the running expression.
	var pinned []store.Digest
	if s.cfg.Store != nil {
		defer func() {
			for _, d := range pinned {
				s.cfg.Store.Unpin(d)
			}
		}()
	}
	resolve := s.exprResolver(operands, &pinned)
	if len(plan.Roots) > 1 {
		results, stats, err := s.expr.EvalMulti(r.Context(), plan, opts, resolve)
		if err != nil {
			if r.Context().Err() != nil {
				return // the timeout middleware already answered
			}
			s.exprError(w, r, err, http.StatusUnprocessableEntity)
			return
		}
		ev.SetOp(plan.Root.Op())
		ev.SetExprStats(stats.Nodes, stats.CSEHits, stats.CacheHits, stats.Evaluated)
		s.exprHeaders(w, stats)
		w.Header().Set("X-Cube-Expr-Roots", strconv.Itoa(len(results)))
		if ctxDone(w, r) {
			return
		}
		s.writeExperimentParts(w, r, results)
		return
	}
	result, stats, err := s.expr.Eval(r.Context(), plan, opts, resolve)
	if err != nil {
		if r.Context().Err() != nil {
			return // the timeout middleware already answered
		}
		s.exprError(w, r, err, http.StatusUnprocessableEntity)
		return
	}
	ev.SetOp(plan.Root.Op())
	ev.SetExprStats(stats.Nodes, stats.CSEHits, stats.CacheHits, stats.Evaluated)
	s.exprHeaders(w, stats)
	if ctxDone(w, r) {
		return
	}
	s.writeExperiment(w, r, result)
}

// exprHeaders stamps the evaluation-stat response headers shared by the
// single-root and batched forms of POST /expr.
func (s *service) exprHeaders(w http.ResponseWriter, stats expr.Stats) {
	w.Header().Set("X-Cube-Expr-Nodes", strconv.Itoa(stats.Nodes))
	w.Header().Set("X-Cube-Expr-Cse-Hits", strconv.Itoa(stats.CSEHits))
	cacheState := "miss"
	if stats.RootCached {
		cacheState = "hit"
	}
	w.Header().Set("X-Cube-Expr-Cache", cacheState)
}

// writeExperimentParts answers a batched expression with a multipart/mixed
// body carrying one CUBE XML part per root, in root order. Like
// writeExperiment, every document is encoded before the first response
// byte, so encoding failures become a clean 500 rather than a truncated
// multipart stream.
func (s *service) writeExperimentParts(w http.ResponseWriter, r *http.Request, results []*core.Experiment) {
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for i, e := range results {
		var buf bytes.Buffer
		if err := cubexml.WriteContext(r.Context(), &buf, e); err != nil {
			s.logError(r.Context(), "encoding result experiment",
				slog.String("title", e.Title), slog.Any("err", err))
			httpError(w, r, http.StatusInternalServerError, "encoding root %d: %v", i, err)
			return
		}
		hdr := make(textproto.MIMEHeader)
		hdr.Set("Content-Type", "application/xml; charset=utf-8")
		pw, err := mw.CreatePart(hdr)
		if err != nil {
			httpError(w, r, http.StatusInternalServerError, "assembling multipart response: %v", err)
			return
		}
		buf.WriteTo(pw)
	}
	mw.Close()
	w.Header().Set("Content-Type", "multipart/mixed; boundary="+mw.Boundary())
	w.Header().Set("Content-Length", strconv.Itoa(body.Len()))
	body.WriteTo(w)
}

// planExpr parses and canonicalizes the expression document against the
// request's inline operands.
func (s *service) planExpr(src []byte, operands []exprOperand) (*expr.Plan, error) {
	ex, err := expr.Parse(src, expr.Limits{MaxNodes: s.cfg.MaxExprNodes, MaxDepth: s.cfg.MaxExprDepth})
	if err != nil {
		return nil, err
	}
	if m := ex.MaxOperandRef(); m >= len(operands) {
		return nil, fmt.Errorf("expression references operand:%d but the request carries %d operand file(s)", m, len(operands))
	}
	return ex.Plan(func(i int) ([sha256.Size]byte, error) {
		return [sha256.Size]byte(operands[i].digest), nil
	})
}

// exprResolver supplies leaf experiments to the evaluation engine: inline
// operands parse through the content-addressed parse cache, digest leaves
// resolve from the store (pinned into *pinned for the caller to release).
// Leaves resolve through the cache's shared path: the engine's operators
// never mutate operands, so a repeat request over the same content digest
// reuses the cached master's lowered columnar block outright instead of
// copying it (counted as cube_lower_cache_hits_total).
func (s *service) exprResolver(operands []exprOperand, pinned *[]store.Digest) expr.Resolver {
	return func(ctx context.Context, leaf expr.Leaf) (*core.Experiment, error) {
		switch leaf.Kind {
		case expr.LeafOperand:
			op := operands[leaf.Operand]
			if op.isRef {
				return s.resolveDigestLeaf(ctx, op.digest, pinned)
			}
			if s.cache != nil {
				return s.cache.shared(ctx, op.digest, op.data)
			}
			return cubexml.ReadBytes(ctx, op.data, cubexml.ReadOptions{Limits: s.cfg.XML, Engine: s.cfg.ReadEngine})
		case expr.LeafDigest:
			d, ok := store.ParseDigest(leaf.Digest)
			if !ok {
				return nil, fmt.Errorf("bad digest ref %q", leaf.Digest)
			}
			return s.resolveDigestLeaf(ctx, d, pinned)
		default:
			return nil, fmt.Errorf("unknown leaf kind %d", leaf.Kind)
		}
	}
}

// resolveDigestLeaf is resolveDigestOperand for expression leaves: pin,
// read the verified bytes, parse through the parse cache.
func (s *service) resolveDigestLeaf(ctx context.Context, d store.Digest, pinned *[]store.Digest) (*core.Experiment, error) {
	st := s.cfg.Store
	if st == nil {
		return nil, fmt.Errorf("expression references digest %s but no experiment store is configured", d)
	}
	if !st.Pin(d) {
		return nil, &storeMissError{operand: -1, digest: d.String()}
	}
	*pinned = append(*pinned, d)
	ev := obs.EventFromContext(ctx)
	ev.AddStorePin()
	data, err := st.GetContext(ctx, d)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return nil, &storeMissError{operand: -1, digest: d.String()}
		}
		return nil, err
	}
	ev.AddOperand("digest", int64(len(data)))
	statsFrom(ctx).add(int64(len(data)))
	if s.cache != nil {
		// The store verified data against d on read: d is the cache key.
		return s.cache.shared(ctx, d, data)
	}
	return cubexml.ReadBytes(ctx, data, cubexml.ReadOptions{Limits: s.cfg.XML, Engine: s.cfg.ReadEngine})
}

// readExprBody extracts the expression document and the inline operands
// from the request: a bare application/json body, or a multipart form
// with an "expr" field plus ordered "operand" files.
func (s *service) readExprBody(r *http.Request) ([]byte, []exprOperand, error) {
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") || ct == "" {
		src, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, nil, fmt.Errorf("reading expression body: %w", err)
		}
		return src, nil, nil
	}
	if err := r.ParseMultipartForm(8 << 20); err != nil {
		return nil, nil, fmt.Errorf("parsing multipart form: %w (POST /expr takes application/json or multipart/form-data)", err)
	}
	var src []byte
	switch {
	case len(r.MultipartForm.Value["expr"]) > 0:
		src = []byte(r.MultipartForm.Value["expr"][0])
	case len(r.MultipartForm.File["expr"]) > 0:
		f, err := r.MultipartForm.File["expr"][0].Open()
		if err != nil {
			return nil, nil, fmt.Errorf(`"expr" part: %w`, err)
		}
		src, err = io.ReadAll(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf(`"expr" part: %w`, err)
		}
	default:
		return nil, nil, fmt.Errorf(`no "expr" field in multipart request`)
	}
	files := r.MultipartForm.File["operand"]
	if s.cfg.MaxOperands > 0 && len(files) > s.cfg.MaxOperands {
		return nil, nil, fmt.Errorf("%w: %d operands exceed the limit of %d", errTooLarge, len(files), s.cfg.MaxOperands)
	}
	stats := statsFrom(r.Context())
	ev := obs.EventFromContext(r.Context())
	operands := make([]exprOperand, 0, len(files))
	for i, fh := range files {
		if err := r.Context().Err(); err != nil {
			return nil, nil, err
		}
		if s.cfg.MaxFileBytes > 0 && fh.Size > s.cfg.MaxFileBytes {
			return nil, nil, fmt.Errorf("%w: operand %d is %d bytes (per-file limit %d)", errTooLarge, i, fh.Size, s.cfg.MaxFileBytes)
		}
		f, err := fh.Open()
		if err != nil {
			return nil, nil, fmt.Errorf("operand %d: %w", i, err)
		}
		data, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("operand %d: %w", i, err)
		}
		if len(data) <= digestRefPeek {
			if d, ok := parseDigestRef(data); ok {
				operands = append(operands, exprOperand{digest: d, isRef: true})
				continue
			}
		}
		d := store.DigestOf(data)
		if err := s.verifyDigest(r.Context(), fmt.Sprintf("operand %d (%s)", i, fh.Filename),
			fh.Header.Get("Content-Digest"), d, len(data)); err != nil {
			return nil, nil, err
		}
		stats.add(int64(len(data)))
		ev.AddOperand("inline", int64(len(data)))
		operands = append(operands, exprOperand{data: data, digest: d})
	}
	return src, operands, nil
}

// exprError maps an expression-pipeline error onto a status: 400 for
// structural expression errors, 404 for digest leaves the store does not
// hold, 413 for size-guard violations, otherwise the phase default
// (400 while reading the request, 422 once evaluation started).
func (s *service) exprError(w http.ResponseWriter, r *http.Request, err error, fallback int) {
	if r.Context().Err() != nil {
		return // the timeout middleware already answered
	}
	code := fallback
	var pe *expr.ParseError
	var miss *storeMissError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &pe):
		code = http.StatusBadRequest
	case errors.As(err, &miss):
		code = http.StatusNotFound
	case errors.As(err, &mbe), errors.Is(err, errTooLarge), errors.Is(err, cubexml.ErrLimit),
		strings.Contains(err.Error(), "request body too large"):
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, r, code, "%v", err)
}
