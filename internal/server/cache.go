package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"strings"
	"sync"

	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/obs"
)

// parseCache is the server's content-addressed experiment cache: operand
// uploads are keyed by the SHA-256 of their bytes, and a repeated operand
// is answered with a clone of the cached parse instead of another trip
// through the XML decoder. Typical algebra workflows resubmit the same
// experiments many times (a - b, then mean(a, c), then a view of a), so
// the same bytes arrive over and over.
//
// Masters in the cache are compacted to their columnar severity store, so
// a hit costs two flat array copies plus a metadata walk (Experiment.Clone's
// columnar path) — no parsing, no per-tuple allocation. Concurrent misses
// on the same key are deduplicated: one request parses, the rest wait and
// clone its result (including sharing its error). The cache holds at most
// budget bytes of operand input (the decoded experiment is the same order
// of magnitude), evicting least-recently-used entries; an operand larger
// than the whole budget is parsed but never cached.
type parseCache struct {
	reg    *obs.Registry
	budget int64
	limits cubexml.Limits
	engine cubexml.ReadEngine

	mu      sync.Mutex
	entries map[[sha256.Size]byte]*list.Element
	lru     *list.List // of *cacheEntry; front = most recently used
	bytes   int64
	flights map[[sha256.Size]byte]*flight
}

type cacheEntry struct {
	key  [sha256.Size]byte
	size int64
	e    *core.Experiment
	// meta is e's metadata digest, recorded at ingest so lowered-block
	// reuse across requests is keyed by (content digest, metadata digest)
	// without re-walking the forests on every request.
	meta [sha256.Size]byte
	// shared reports whether e is columnar-only, i.e. its lowered
	// severity block may be handed to read-only consumers without a copy.
	shared bool
}

// flight is one in-progress parse other requests for the same key wait on.
type flight struct {
	wg     sync.WaitGroup
	e      *core.Experiment
	meta   [sha256.Size]byte
	shared bool
	err    error
}

func newParseCache(budget int64, lim cubexml.Limits, engine cubexml.ReadEngine, reg *obs.Registry) *parseCache {
	return &parseCache{
		reg:     reg,
		budget:  budget,
		limits:  lim,
		engine:  engine,
		entries: map[[sha256.Size]byte]*list.Element{},
		lru:     list.New(),
		flights: map[[sha256.Size]byte]*flight{},
	}
}

func (pc *parseCache) count(name string) {
	if pc.reg != nil {
		pc.reg.Counter(name).Inc()
	}
}

// get returns an experiment for the operand bytes — a private clone the
// caller may mutate freely — parsing at most once per distinct content.
// key is the SHA-256 of data; callers hash each upload once and reuse the
// digest they already verified (or, for store reads, the digest the store
// verified on read).
func (pc *parseCache) get(ctx context.Context, key [sha256.Size]byte, data []byte) (*core.Experiment, error) {
	return pc.resolve(ctx, key, data, false)
}

// shared returns the cached master itself when it is columnar-only —
// zero-copy reuse of its already-lowered severity block — falling back to
// a private clone otherwise. The caller must treat the result as strictly
// read-only; the expression engine's operand contract (operators never
// mutate operands) is what makes this safe.
func (pc *parseCache) shared(ctx context.Context, key [sha256.Size]byte, data []byte) (*core.Experiment, error) {
	return pc.resolve(ctx, key, data, true)
}

func (pc *parseCache) resolve(ctx context.Context, key [sha256.Size]byte, data []byte, wantShared bool) (*core.Experiment, error) {
	sp, _ := obs.StartSpanContext(ctx, "cubexml.cache")
	ent, outcome, err := pc.lookup(ctx, key, data)
	if sp != nil {
		sp.SetAttr("outcome", outcome)
		sp.SetAttr("bytes", int64(len(data)))
		if err != nil {
			sp.SetAttr("error", err.Error())
		} else {
			sp.SetAttr("meta", hex.EncodeToString(ent.meta[:6]))
		}
		sp.End()
	}
	ev := obs.EventFromContext(ctx)
	// A "wait" shared another request's parse, which is a hit from this
	// request's cost perspective.
	ev.ParseCache(outcome != "miss")
	if err != nil {
		return nil, err
	}
	if wantShared {
		// Lowered-block reuse: a repeat request over the same content
		// digest serves the master's columnar block outright instead of
		// copying it. The first parse necessarily builds the block, so it
		// counts as the miss that populates the cache.
		hit := ent.shared && outcome != "miss"
		if hit {
			pc.count("cube_lower_cache_hits_total")
		} else {
			pc.count("cube_lower_cache_misses_total")
		}
		ev.LowerCache(hit)
		if ent.shared {
			return ent.e, nil
		}
	}
	// Cloning is pure reads on the master (columnar fast path), so
	// concurrent resolves of the same entry may proceed in parallel.
	return ent.e.Clone(), nil
}

func (pc *parseCache) lookup(ctx context.Context, key [sha256.Size]byte, data []byte) (cacheEntry, string, error) {
	pc.mu.Lock()
	if el, ok := pc.entries[key]; ok {
		pc.lru.MoveToFront(el)
		ent := *el.Value.(*cacheEntry)
		pc.mu.Unlock()
		pc.count("cube_parse_cache_hits_total")
		return ent, "hit", nil
	}
	if fl, ok := pc.flights[key]; ok {
		pc.mu.Unlock()
		fl.wg.Wait()
		if fl.err != nil {
			return cacheEntry{}, "wait", fl.err
		}
		pc.count("cube_parse_cache_hits_total")
		return cacheEntry{key: key, e: fl.e, meta: fl.meta, shared: fl.shared}, "wait", nil
	}
	fl := &flight{}
	fl.wg.Add(1)
	pc.flights[key] = fl
	pc.mu.Unlock()

	pc.count("cube_parse_cache_misses_total")
	master, err := cubexml.ReadBytes(ctx, data, cubexml.ReadOptions{Limits: pc.limits, Engine: pc.engine})
	ent := cacheEntry{key: key, size: int64(len(data)), e: master}
	if err == nil {
		// Compact to the columnar store and record the metadata digest
		// before the master becomes visible to anyone: from here on,
		// every consumer — cloning or shared — only ever reads it.
		ent.shared = master.CompactSeverities()
		ent.meta = master.MetaDigest()
		fl.e, fl.meta, fl.shared = master, ent.meta, ent.shared
	}
	fl.err = err
	fl.wg.Done()

	pc.mu.Lock()
	delete(pc.flights, key)
	if err == nil {
		pc.insert(&ent)
	}
	pc.mu.Unlock()
	if err != nil {
		return cacheEntry{}, "miss", err
	}
	return ent, "miss", nil
}

// insert adds a parsed master under pc.mu, evicting from the LRU tail
// until the budget holds. Entries larger than the whole budget are not
// cached at all.
func (pc *parseCache) insert(ent *cacheEntry) {
	if ent.size > pc.budget {
		return
	}
	for pc.bytes+ent.size > pc.budget {
		back := pc.lru.Back()
		if back == nil {
			break
		}
		old := back.Value.(*cacheEntry)
		pc.lru.Remove(back)
		delete(pc.entries, old.key)
		pc.bytes -= old.size
		pc.count("cube_parse_cache_evictions_total")
	}
	pc.entries[ent.key] = pc.lru.PushFront(ent)
	pc.bytes += ent.size
	if pc.reg != nil {
		pc.reg.Gauge("cube_parse_cache_bytes").Set(pc.bytes)
	}
}

// parseContentDigest extracts the sha-256 digest from an RFC 9530
// Content-Digest header value ("sha-256=:BASE64:", possibly one of a
// comma-separated list). ok is false when the header carries no sha-256
// entry or it does not decode.
func parseContentDigest(header string) (digest [sha256.Size]byte, ok bool) {
	for _, part := range strings.Split(header, ",") {
		alg, val, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found || !strings.EqualFold(strings.TrimSpace(alg), "sha-256") {
			continue
		}
		val = strings.TrimSpace(val)
		if len(val) < 2 || val[0] != ':' || val[len(val)-1] != ':' {
			return digest, false
		}
		raw, err := base64.StdEncoding.DecodeString(val[1 : len(val)-1])
		if err != nil || len(raw) != sha256.Size {
			return digest, false
		}
		copy(digest[:], raw)
		return digest, true
	}
	return digest, false
}
