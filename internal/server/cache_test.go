package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"log/slog"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/obs"
)

func encodeExp(t testing.TB, e *core.Experiment) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cubexml.Write(&buf, e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func counter(reg *obs.Registry, name string) int64 { return reg.Counter(name).Value() }

func TestParseCacheHitMiss(t *testing.T) {
	reg := obs.NewRegistry()
	pc := newParseCache(1<<20, cubexml.DefaultLimits, cubexml.EngineAuto, reg)
	want := buildExp("cached", 0)
	data := encodeExp(t, want)

	first, err := pc.get(context.Background(), sha256.Sum256(data), data)
	if err != nil {
		t.Fatal(err)
	}
	second, err := pc.get(context.Background(), sha256.Sum256(data), data)
	if err != nil {
		t.Fatal(err)
	}
	if got := counter(reg, "cube_parse_cache_misses_total"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := counter(reg, "cube_parse_cache_hits_total"); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if first.Fingerprint() != want.Fingerprint() || second.Fingerprint() != want.Fingerprint() {
		t.Error("cached experiment differs from the original")
	}
	// Clones are private: mutating one result must not leak into another.
	m, c, th := first.Metrics()[0], first.CallNodes()[0], first.Threads()[0]
	first.SetSeverity(m, c, th, 1e9)
	if second.Fingerprint() != want.Fingerprint() {
		t.Error("mutating one cache result changed another")
	}
	third, err := pc.get(context.Background(), sha256.Sum256(data), data)
	if err != nil {
		t.Fatal(err)
	}
	if third.Fingerprint() != want.Fingerprint() {
		t.Error("mutating a cache result changed the master")
	}
}

func TestParseCacheSingleflightWait(t *testing.T) {
	reg := obs.NewRegistry()
	pc := newParseCache(1<<20, cubexml.DefaultLimits, cubexml.EngineAuto, reg)
	want := buildExp("inflight", 0)
	data := encodeExp(t, want)

	// Install an in-progress flight by hand, then resolve it while a
	// lookup is blocked on it: deterministic coverage of the wait path.
	master, err := cubexml.ReadBytes(context.Background(), data, cubexml.ReadOptions{Limits: cubexml.DefaultLimits})
	if err != nil {
		t.Fatal(err)
	}
	master.CompactSeverities()
	fl := &flight{}
	fl.wg.Add(1)
	pc.flights[sha256.Sum256(data)] = fl
	go func() {
		time.Sleep(10 * time.Millisecond)
		fl.e = master
		fl.wg.Done()
	}()
	got, err := pc.get(context.Background(), sha256.Sum256(data), data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("waiter got a different experiment")
	}
	if hits := counter(reg, "cube_parse_cache_hits_total"); hits != 1 {
		t.Errorf("hits = %d, want 1 (waiter counts as hit)", hits)
	}
	if misses := counter(reg, "cube_parse_cache_misses_total"); misses != 0 {
		t.Errorf("misses = %d, want 0", misses)
	}

	// And the error side: waiters share the leader's failure.
	badKey := sha256.Sum256([]byte("bad"))
	flErr := &flight{}
	flErr.wg.Add(1)
	pc.flights[badKey] = flErr
	wantErr := fmt.Errorf("boom")
	go func() {
		time.Sleep(10 * time.Millisecond)
		flErr.err = wantErr
		flErr.wg.Done()
	}()
	if _, err := pc.get(context.Background(), badKey, []byte("bad")); err != wantErr {
		t.Errorf("waiter error = %v, want shared %v", err, wantErr)
	}
}

func TestParseCacheEviction(t *testing.T) {
	reg := obs.NewRegistry()
	docs := [][]byte{
		encodeExp(t, buildExp("a", 0)),
		encodeExp(t, buildExp("b", 0.25)),
		encodeExp(t, buildExp("c", 0.5)),
	}
	budget := int64(len(docs[0])+len(docs[1])) + 16 // room for two, not three
	pc := newParseCache(budget, cubexml.DefaultLimits, cubexml.EngineAuto, reg)
	for _, d := range docs {
		if _, err := pc.get(context.Background(), sha256.Sum256(d), d); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter(reg, "cube_parse_cache_evictions_total"); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if pc.bytes > budget {
		t.Errorf("cache holds %d bytes, budget %d", pc.bytes, budget)
	}
	if got := reg.Gauge("cube_parse_cache_bytes").Value(); int64(got) != pc.bytes {
		t.Errorf("bytes gauge = %v, want %d", got, pc.bytes)
	}
	// docs[0] was least recently used, so it went first.
	if _, ok := pc.entries[sha256.Sum256(docs[0])]; ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := pc.entries[sha256.Sum256(docs[2])]; !ok {
		t.Error("most recent entry was evicted")
	}
	// Re-fetching the evicted operand is a miss again.
	if _, err := pc.get(context.Background(), sha256.Sum256(docs[0]), docs[0]); err != nil {
		t.Fatal(err)
	}
	if got := counter(reg, "cube_parse_cache_misses_total"); got != 4 {
		t.Errorf("misses = %d, want 4", got)
	}
}

func TestParseCacheOversizedNotCached(t *testing.T) {
	reg := obs.NewRegistry()
	data := encodeExp(t, buildExp("big", 0))
	pc := newParseCache(int64(len(data))-1, cubexml.DefaultLimits, cubexml.EngineAuto, reg)
	for i := 0; i < 2; i++ {
		if _, err := pc.get(context.Background(), sha256.Sum256(data), data); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter(reg, "cube_parse_cache_misses_total"); got != 2 {
		t.Errorf("misses = %d, want 2 (oversized operand must not be cached)", got)
	}
	if pc.lru.Len() != 0 || pc.bytes != 0 {
		t.Errorf("oversized operand was cached: %d entries, %d bytes", pc.lru.Len(), pc.bytes)
	}
}

// TestParseCacheErrorReachesAllWaiters: when the flight leader's parse
// fails, every concurrent waiter on that flight — not just one — must
// receive the same error and a nil experiment, and the failure must leave
// no cache entry behind.
func TestParseCacheErrorReachesAllWaiters(t *testing.T) {
	reg := obs.NewRegistry()
	pc := newParseCache(1<<20, cubexml.DefaultLimits, cubexml.EngineAuto, reg)
	bad := []byte("not xml at all")
	key := sha256.Sum256(bad)

	// Install the in-progress flight by hand so every lookup below is
	// guaranteed to take the waiter path before the leader "fails".
	fl := &flight{}
	fl.wg.Add(1)
	pc.flights[key] = fl

	const waiters = 16
	type result struct {
		e   *core.Experiment
		err error
	}
	results := make(chan result, waiters)
	var started sync.WaitGroup
	started.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			started.Done()
			e, err := pc.get(context.Background(), sha256.Sum256(bad), bad)
			results <- result{e, err}
		}()
	}
	started.Wait()
	time.Sleep(5 * time.Millisecond) // let the goroutines reach wg.Wait
	wantErr := fmt.Errorf("leader parse exploded")
	fl.err = wantErr
	fl.wg.Done()
	// Mirror the leader's cleanup: the flight is done, errors don't cache.
	pc.mu.Lock()
	delete(pc.flights, key)
	pc.mu.Unlock()

	for i := 0; i < waiters; i++ {
		r := <-results
		if r.err != wantErr {
			t.Fatalf("waiter %d error = %v, want the shared %v", i, r.err, wantErr)
		}
		if r.e != nil {
			t.Fatalf("waiter %d got a non-nil experiment alongside the error", i)
		}
	}
	pc.mu.Lock()
	entries, bytes := len(pc.entries), pc.bytes
	pc.mu.Unlock()
	if entries != 0 || bytes != 0 {
		t.Errorf("failed parse left %d entries / %d bytes in the cache", entries, bytes)
	}
	if hits := counter(reg, "cube_parse_cache_hits_total"); hits != 0 {
		t.Errorf("hits = %d, want 0 (error waiters must not count as hits)", hits)
	}
}

func TestParseCacheParseErrorNotCached(t *testing.T) {
	reg := obs.NewRegistry()
	pc := newParseCache(1<<20, cubexml.DefaultLimits, cubexml.EngineAuto, reg)
	bad := []byte("<cube this is not XML")
	var lastErr error
	for i := 0; i < 2; i++ {
		if _, lastErr = pc.get(context.Background(), sha256.Sum256(bad), bad); lastErr == nil {
			t.Fatal("cache parsed garbage")
		}
	}
	if got := counter(reg, "cube_parse_cache_misses_total"); got != 2 {
		t.Errorf("misses = %d, want 2 (errors must not be cached)", got)
	}
	want, err := cubexml.ReadBytes(context.Background(), bad, cubexml.ReadOptions{Limits: cubexml.DefaultLimits})
	if want != nil || err == nil || lastErr.Error() != err.Error() {
		t.Errorf("cache error = %v, direct parse error = %v", lastErr, err)
	}
}

// TestParseCacheConcurrentMixed hammers a small cache from many goroutines
// with more distinct operands than the budget holds, so hits, misses,
// singleflight waits, and evictions all interleave. Run under -race this
// is the cache's data-race check; the invariants below catch lost updates.
func TestParseCacheConcurrentMixed(t *testing.T) {
	reg := obs.NewRegistry()
	var docs [][]byte
	var prints []string
	for i := 0; i < 6; i++ {
		e := buildExp(fmt.Sprintf("exp-%d", i), float64(i)/8)
		docs = append(docs, encodeExp(t, e))
		prints = append(prints, e.Fingerprint())
	}
	budget := int64(len(docs[0])) * 5 / 2 // holds ~2 of 6 operands
	pc := newParseCache(budget, cubexml.DefaultLimits, cubexml.EngineAuto, reg)

	const workers, iters = 16, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				k := r.Intn(len(docs))
				e, err := pc.get(context.Background(), sha256.Sum256(docs[k]), docs[k])
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if e.Fingerprint() != prints[k] {
					t.Errorf("operand %d: wrong experiment from cache", k)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()

	hits := counter(reg, "cube_parse_cache_hits_total")
	misses := counter(reg, "cube_parse_cache_misses_total")
	if hits+misses != workers*iters {
		t.Errorf("hits %d + misses %d != %d requests", hits, misses, workers*iters)
	}
	if misses < int64(len(docs)) {
		t.Errorf("misses = %d, want at least one per distinct operand (%d)", misses, len(docs))
	}
	if pc.bytes > budget {
		t.Errorf("cache exceeded budget: %d > %d", pc.bytes, budget)
	}
}

// postWithDigest uploads one operand with an explicit Content-Digest part
// header, mimicking the bundled client.
func postWithDigest(t *testing.T, srv *httptest.Server, path string, data []byte, digest string) *http.Response {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	h := make(map[string][]string)
	h["Content-Disposition"] = []string{`form-data; name="operand"; filename="op.cube"`}
	h["Content-Type"] = []string{"application/octet-stream"}
	if digest != "" {
		h["Content-Digest"] = []string{digest}
	}
	fw, err := mw.CreatePart(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(data); err != nil {
		t.Fatal(err)
	}
	mw.Close()
	resp, err := http.Post(srv.URL+path, mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha-256=:" + base64.StdEncoding.EncodeToString(sum[:]) + ":"
}

func TestHandlerCacheAndDigest(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	cfg := quietConfig()
	cfg.Metrics = reg
	cfg.Logger = slog.New(slog.NewTextHandler(writerFunc(func(p []byte) (int, error) {
		logMu.Lock()
		defer logMu.Unlock()
		return logBuf.Write(p)
	}), nil))
	srv := httptest.NewServer(NewHandler(cfg))
	defer srv.Close()

	data := encodeExp(t, buildExp("handler", 0))

	// Correct digest: accepted, no mismatch, first request is a miss.
	resp := postWithDigest(t, srv, "/info", data, digestOf(data))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	resp.Body.Close()
	if got := counter(reg, "cube_parse_cache_misses_total"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := counter(reg, "cube_digest_mismatch_total"); got != 0 {
		t.Errorf("digest mismatches = %d, want 0", got)
	}

	// Same bytes again: served from cache.
	resp = postWithDigest(t, srv, "/info", data, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := counter(reg, "cube_parse_cache_hits_total"); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}

	// Wrong digest: trust but verify — processed anyway, counted, logged.
	resp = postWithDigest(t, srv, "/info", data, digestOf([]byte("other bytes")))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after mismatch %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := counter(reg, "cube_digest_mismatch_total"); got != 1 {
		t.Errorf("digest mismatches = %d, want 1", got)
	}
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logged, "content digest mismatch") {
		t.Errorf("mismatch not logged:\n%s", logged)
	}

	// Unparseable digest header: ignored, not a mismatch.
	resp = postWithDigest(t, srv, "/info", data, "sha-256=:!!!not base64!!!:")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after bad header %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := counter(reg, "cube_digest_mismatch_total"); got != 1 {
		t.Errorf("digest mismatches = %d, want still 1", got)
	}
}

// TestCorruptInlineUploadCounted: an inline operand damaged after the
// client hashed it (the Content-Digest names the original bytes) is still
// counted as a mismatch on /op and /expr, and the parse cache keys it on
// the digest of the bytes actually received: the damaged document never
// answers for the original.
func TestCorruptInlineUploadCounted(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := quietConfig()
	cfg.Metrics = reg
	srv := httptest.NewServer(NewHandler(cfg))
	defer srv.Close()

	orig := encodeExp(t, buildExp("original", 0))
	corrupt := bytes.Replace(orig, []byte("original"), []byte("0riginal"), 1)
	if bytes.Equal(orig, corrupt) {
		t.Fatal("corruption did not change the document")
	}
	sent := digestOf(orig)

	resp := postWithDigest(t, srv, "/op/flatten", corrupt, sent)
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("/op with corrupt upload: status %d: %s", resp.StatusCode, body)
	}
	if got := counter(reg, "cube_digest_mismatch_total"); got != 1 {
		t.Errorf("/op: digest mismatches = %d, want 1", got)
	}

	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	mw.WriteField("expr", `{"op":"flatten","args":[{"ref":"operand:0"}]}`)
	fw, err := mw.CreatePart(map[string][]string{
		"Content-Disposition": {`form-data; name="operand"; filename="op.cube"`},
		"Content-Digest":      {sent},
	})
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(corrupt)
	mw.Close()
	resp, err = http.Post(srv.URL+"/expr", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("/expr with corrupt upload: status %d: %s", resp.StatusCode, body)
	}
	if got := counter(reg, "cube_digest_mismatch_total"); got != 2 {
		t.Errorf("/expr: digest mismatches = %d, want 2", got)
	}
	// The /expr operand was the corrupt bytes again: a hit on their own
	// digest. The original bytes are a fresh miss.
	if hits, misses := counter(reg, "cube_parse_cache_hits_total"), counter(reg, "cube_parse_cache_misses_total"); hits != 1 || misses != 1 {
		t.Errorf("after corrupt uploads: hits %d misses %d, want 1 and 1", hits, misses)
	}
	resp = postWithDigest(t, srv, "/op/flatten", orig, sent)
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("/op with original: status %d: %s", resp.StatusCode, body)
	}
	if misses := counter(reg, "cube_parse_cache_misses_total"); misses != 2 {
		t.Errorf("original after corrupt: misses = %d, want 2", misses)
	}
	if got := counter(reg, "cube_digest_mismatch_total"); got != 2 {
		t.Errorf("intact upload counted as a mismatch: %d", got)
	}
}

func TestHandlerCacheDisabled(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := quietConfig()
	cfg.Metrics = reg
	cfg.ParseCacheBytes = 0
	srv := httptest.NewServer(NewHandler(cfg))
	defer srv.Close()

	data := encodeExp(t, buildExp("nocache", 0))
	for i := 0; i < 2; i++ {
		resp := postWithDigest(t, srv, "/info", data, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if got := counter(reg, "cube_parse_cache_hits_total") + counter(reg, "cube_parse_cache_misses_total"); got != 0 {
		t.Errorf("cache counters moved with cache disabled: %d", got)
	}
}

func TestParseContentDigest(t *testing.T) {
	sum := sha256.Sum256([]byte("payload"))
	good := "sha-256=:" + base64.StdEncoding.EncodeToString(sum[:]) + ":"
	cases := []struct {
		header string
		ok     bool
	}{
		{good, true},
		{"SHA-256=:" + base64.StdEncoding.EncodeToString(sum[:]) + ":", true},
		{"sha-512=:AAAA:, " + good, true},
		{good + ", sha-512=:AAAA:", true},
		{"", false},
		{"sha-512=:AAAA:", false},
		{"sha-256=AAAA", false},
		{"sha-256=:notbase64!!!:", false},
		{"sha-256=::", false},
		{"sha-256=:" + base64.StdEncoding.EncodeToString([]byte("short")) + ":", false},
	}
	for _, tc := range cases {
		got, ok := parseContentDigest(tc.header)
		if ok != tc.ok {
			t.Errorf("parseContentDigest(%q) ok = %v, want %v", tc.header, ok, tc.ok)
		}
		if ok && got != sum {
			t.Errorf("parseContentDigest(%q) wrong digest", tc.header)
		}
	}
}

// BenchmarkParseCacheHit measures serving a repeated operand from the
// cache. The final counter check proves every benchmark iteration was a
// hit — i.e. the operand was parsed exactly once, so the per-op
// allocations are clone-only, with zero parse allocations.
func BenchmarkParseCacheHit(b *testing.B) {
	reg := obs.NewRegistry()
	pc := newParseCache(1<<24, cubexml.DefaultLimits, cubexml.EngineAuto, reg)
	data := encodeExp(b, buildExp("bench", 0))
	if _, err := pc.get(context.Background(), sha256.Sum256(data), data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.get(context.Background(), sha256.Sum256(data), data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if misses := counter(reg, "cube_parse_cache_misses_total"); misses != 1 {
		b.Fatalf("misses = %d, want 1: benchmark measured parses, not hits", misses)
	}
	if hits := counter(reg, "cube_parse_cache_hits_total"); hits != int64(b.N) {
		b.Fatalf("hits = %d, want %d", hits, b.N)
	}
}

func BenchmarkParseCacheMiss(b *testing.B) {
	pc := newParseCache(0, cubexml.DefaultLimits, cubexml.EngineAuto, nil) // nothing cacheable
	data := encodeExp(b, buildExp("bench", 0))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.get(context.Background(), sha256.Sum256(data), data); err != nil {
			b.Fatal(err)
		}
	}
}
