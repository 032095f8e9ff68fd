package server

// The experiment-store routes: upload-once/reference-by-digest operands.
//
//	PUT  /experiments/{sha256}   commit a CUBE XML document under its
//	                             content address (idempotent; the body
//	                             must hash to the URL digest)
//	GET  /experiments/{sha256}   fetch the committed bytes (digest-verified
//	                             by the store on every read)
//	HEAD /experiments/{sha256}   existence + size, no body
//	GET  /readyz                 readiness; 503 + JSON naming degraded
//	                             mode while the store is read-only
//
// Operator endpoints accept stored operands by reference: a multipart
// "operand" part whose body is `digest:<sha256-hex>` resolves to the
// stored blob instead of uploaded bytes, so large experiments cross the
// wire once. Referenced blobs are pinned for the life of the resolution,
// so LRU eviction under budget pressure can never pull an operand out
// from under an in-flight request.

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/obs"
	"cube/internal/store"
)

// digestRefPrefix marks an operand part as a store reference. CUBE XML
// starts with '<', so the prefix cannot collide with a literal operand.
const digestRefPrefix = "digest:"

// digestRefPeek bounds how many leading bytes of an operand part are
// examined for a reference: prefix + hex digest + whitespace slack.
const digestRefPeek = len(digestRefPrefix) + 2*sha256.Size + 16

// parseDigestRef recognizes a digest-reference operand body.
func parseDigestRef(b []byte) (store.Digest, bool) {
	s := strings.TrimSpace(string(b))
	if !strings.HasPrefix(s, digestRefPrefix) {
		return store.Digest{}, false
	}
	return store.ParseDigest(strings.TrimSpace(s[len(digestRefPrefix):]))
}

// storeMissError is a digest reference to a blob the store does not hold;
// operands() maps it to 404 so clients know to upload and retry.
type storeMissError struct {
	operand int
	digest  string
}

func (e *storeMissError) Error() string {
	who := fmt.Sprintf("operand %d", e.operand)
	if e.operand < 0 {
		who = "expression leaf"
	}
	return fmt.Sprintf("%s: experiment %s is not in the store (upload it with PUT /experiments/%s)",
		who, e.digest, e.digest)
}

// resolveDigestOperand turns a digest reference into a parsed experiment:
// pin (recorded in *pinned; the caller unpins when resolution of all
// operands is complete), read the verified bytes, parse — through the
// content-addressed parse cache when enabled, so a repeatedly referenced
// operand is decoded exactly once.
func (s *service) resolveDigestOperand(ctx context.Context, i int, d store.Digest, pinned *[]store.Digest) (*core.Experiment, int64, error) {
	st := s.cfg.Store
	if st == nil {
		return nil, 0, fmt.Errorf("operand %d is a digest reference but no experiment store is configured", i)
	}
	if !st.Pin(d) {
		return nil, 0, &storeMissError{operand: i, digest: d.String()}
	}
	*pinned = append(*pinned, d)
	obs.EventFromContext(ctx).AddStorePin()
	data, err := st.GetContext(ctx, d)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return nil, 0, &storeMissError{operand: i, digest: d.String()}
		}
		return nil, 0, fmt.Errorf("operand %d: %w", i, err)
	}
	var e *core.Experiment
	if s.cache != nil {
		// The store verified data against d on read: d is the cache key.
		e, err = s.cache.get(ctx, d, data)
	} else {
		e, err = cubexml.ReadBytes(ctx, data, cubexml.ReadOptions{Limits: s.cfg.XML, Engine: s.cfg.ReadEngine})
	}
	if err != nil {
		return nil, 0, fmt.Errorf("operand %d (digest %s): %w", i, d, err)
	}
	return e, int64(len(data)), nil
}

// parseExperimentDigest extracts the {digest} path value.
func parseExperimentDigest(w http.ResponseWriter, r *http.Request) (store.Digest, bool) {
	d, ok := store.ParseDigest(r.PathValue("digest"))
	if !ok {
		httpError(w, r, http.StatusBadRequest,
			"bad experiment digest %q (want 64 hex chars of the document's SHA-256)", r.PathValue("digest"))
	}
	return d, ok
}

// contentDigestHeader renders d as an RFC 9530 Content-Digest value.
func contentDigestHeader(d store.Digest) string {
	return "sha-256=:" + base64.StdEncoding.EncodeToString(d[:]) + ":"
}

// retryAfterSeconds is the Retry-After hint on degraded-store 503s: the
// configured 429 hint, floored at one second so clients always back off.
func (s *service) retryAfterSeconds() string {
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// handleExperimentPut commits an uploaded document under its content
// address. The body must hash to the URL digest (400 otherwise) and must
// parse as a CUBE experiment (422) before it is written; a degraded
// (read-only) store answers 503 with a Retry-After hint. The route is
// idempotent: re-uploading a committed digest is a cheap 200.
func (s *service) handleExperimentPut(w http.ResponseWriter, r *http.Request) {
	d, ok := parseExperimentDigest(w, r)
	if !ok {
		return
	}
	st := s.cfg.Store
	writeResult := func(status int, size int64, created bool) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]any{
			"digest": d.String(), "bytes": size, "created": created,
		})
	}
	if size, ok := st.Stat(d); ok {
		writeResult(http.StatusOK, size, false)
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		code := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, r, code, "reading upload: %v", err)
		return
	}
	if s.cfg.MaxFileBytes > 0 && int64(len(data)) > s.cfg.MaxFileBytes {
		httpError(w, r, http.StatusRequestEntityTooLarge,
			"%v: upload is %d bytes (per-file limit %d)", errTooLarge, len(data), s.cfg.MaxFileBytes)
		return
	}
	if got := store.DigestOf(data); got != d {
		if s.reg != nil {
			s.reg.Counter("cube_digest_mismatch_total").Inc()
		}
		httpError(w, r, http.StatusBadRequest,
			"body hashes to %s, URL names %s: refusing to store corrupt upload", got, d)
		return
	}
	if err := s.verifyDigest(r.Context(), "PUT /experiments", r.Header.Get("Content-Digest"), d, len(data)); err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	// The store holds experiments, not arbitrary bytes: reject documents
	// that do not parse before committing disk space to them. Parsing
	// through the cache also pre-warms the entry the first digest
	// reference will hit.
	if s.cache != nil {
		_, err = s.cache.get(r.Context(), d, data)
	} else {
		_, err = cubexml.ReadBytes(r.Context(), data, cubexml.ReadOptions{Limits: s.cfg.XML, Engine: s.cfg.ReadEngine})
	}
	if err != nil {
		if errors.Is(err, cubexml.ErrLimit) {
			httpError(w, r, http.StatusRequestEntityTooLarge, "%v", err)
			return
		}
		httpError(w, r, http.StatusUnprocessableEntity, "upload is not a CUBE experiment: %v", err)
		return
	}
	_, created, err := st.PutContext(r.Context(), data, &d)
	switch {
	case errors.Is(err, store.ErrDegraded):
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		httpError(w, r, http.StatusServiceUnavailable, "experiment store is read-only: %v", err)
		return
	case errors.Is(err, store.ErrTooLarge):
		httpError(w, r, http.StatusRequestEntityTooLarge, "%v", err)
		return
	case err != nil:
		s.logError(r.Context(), "experiment store write failed", "digest", d.String(), "err", err)
		httpError(w, r, http.StatusInternalServerError, "storing experiment: %v", err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeResult(status, int64(len(data)), created)
}

// handleExperimentGet serves a committed blob (GET) or its existence and
// size (HEAD). The store verifies the bytes against the digest on every
// read; corrupt blobs are quarantined and reported 404, never served.
func (s *service) handleExperimentGet(w http.ResponseWriter, r *http.Request) {
	d, ok := parseExperimentDigest(w, r)
	if !ok {
		return
	}
	st := s.cfg.Store
	if r.Method == http.MethodHead {
		size, ok := st.Stat(d)
		if !ok {
			httpError(w, r, http.StatusNotFound, "experiment %s is not in the store", d)
			return
		}
		w.Header().Set("Content-Type", "application/xml; charset=utf-8")
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		w.Header().Set("Content-Digest", contentDigestHeader(d))
		w.WriteHeader(http.StatusOK)
		return
	}
	data, err := st.GetContext(r.Context(), d)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			httpError(w, r, http.StatusNotFound, "experiment %s is not in the store", d)
			return
		}
		httpError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set("Content-Digest", contentDigestHeader(d))
	w.Write(data)
}

// handleReadyz is the readiness probe: 200 while the service can do its
// whole job, 503 + a JSON body naming the degraded component while the
// experiment store is read-only (reads and cached compute still serve;
// load balancers should prefer healthy replicas for uploads). Liveness
// stays on /healthz — a degraded store is not a reason to restart the
// process. Both routes bypass the concurrency limiter.
func (s *service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if st := s.cfg.Store; st != nil {
		if degraded, why := st.Degraded(); degraded {
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{
				"status":    "degraded",
				"component": "experiment-store",
				"mode":      "read-only",
				"reason":    why,
			})
			return
		}
	}
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}
