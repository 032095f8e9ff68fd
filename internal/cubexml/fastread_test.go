package cubexml

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"cube/internal/core"
)

// readAuto / readLegacy are the two sides of every equivalence check.
func readAuto(data []byte, lim Limits) (*core.Experiment, error) {
	return ReadBytes(context.Background(), data, ReadOptions{Limits: lim})
}

func readLegacy(data []byte, lim Limits) (*core.Experiment, error) {
	return ReadBytes(context.Background(), data, ReadOptions{Limits: lim, Engine: EngineLegacy})
}

// checkEquivalent asserts the auto engine is observationally identical to
// the legacy decoder on one document: same success/failure, identical
// error text, identical experiment (compared by fingerprint and by
// re-encoding).
func checkEquivalent(t *testing.T, name string, data []byte, lim Limits) {
	t.Helper()
	ea, erra := readAuto(data, lim)
	el, errl := readLegacy(data, lim)
	switch {
	case (erra == nil) != (errl == nil):
		t.Errorf("%s: engines disagree on success:\nauto:   %v\nlegacy: %v", name, erra, errl)
	case erra != nil:
		if erra.Error() != errl.Error() {
			t.Errorf("%s: error text differs:\nauto:   %v\nlegacy: %v", name, erra, errl)
		}
	default:
		if ea.Fingerprint() != el.Fingerprint() {
			t.Errorf("%s: fingerprints differ:\nauto:\n%s\nlegacy:\n%s", name, ea.Fingerprint(), el.Fingerprint())
		}
		var ba, bl bytes.Buffer
		if err := Write(&ba, ea); err != nil {
			t.Fatalf("%s: re-encode auto: %v", name, err)
		}
		if err := Write(&bl, el); err != nil {
			t.Fatalf("%s: re-encode legacy: %v", name, err)
		}
		if !bytes.Equal(ba.Bytes(), bl.Bytes()) {
			t.Errorf("%s: re-encoded documents differ", name)
		}
	}
}

// metaDoc wraps severity XML in a small but complete document: one metric
// tree (ids 0..2), call nodes 0..1, two threads.
func metaDoc(severity string) string {
	return `<?xml version="1.0" encoding="UTF-8"?>
<cube version="cube-go-1.0">
  <doc><title>eq</title></doc>
  <metrics>
    <metric id="0"><name>Time</name><uom>sec</uom>
      <metric id="1"><name>MPI</name><uom>sec</uom></metric>
    </metric>
    <metric id="2"><name>Visits</name><uom>occ</uom></metric>
  </metrics>
  <program>
    <region id="0" name="main"/>
    <csite id="0" callee="0"/>
    <cnode id="0" csite="0"><cnode id="1" csite="0"/></cnode>
  </program>
  <system><machine name="m"><node name="n">
    <process rank="0"><thread id="0"/><thread id="1"/></process>
  </node></machine></system>
  ` + severity + `
</cube>`
}

// TestEngineEquivalenceCorpus drives both engines over documents chosen to
// hit every branch of the fast path: its happy subset, every error it must
// reproduce verbatim, and every construct that forces the legacy fallback.
func TestEngineEquivalenceCorpus(t *testing.T) {
	cases := map[string]string{
		"plain":              metaDoc(`<severity><matrix metric="0"><row cnode="0">1.5 2</row></matrix></severity>`),
		"all metrics":        metaDoc(`<severity><matrix metric="0"><row cnode="0">1 2</row></matrix><matrix metric="1"><row cnode="1">3 4</row></matrix><matrix metric="2"><row cnode="0">5 6</row></matrix></severity>`),
		"matrices unordered": metaDoc(`<severity><matrix metric="2"><row cnode="0">1 2</row></matrix><matrix metric="0"><row cnode="1">3 4</row></matrix></severity>`),
		"rows unordered":     metaDoc(`<severity><matrix metric="0"><row cnode="1">1 2</row><row cnode="0">3 4</row></matrix></severity>`),
		"zero values":        metaDoc(`<severity><matrix metric="0"><row cnode="0">0 2</row><row cnode="1">0 0</row></matrix></severity>`),
		"empty severity":     metaDoc(`<severity></severity>`),
		"selfclosing sev":    metaDoc(`<severity/>`),
		"empty matrix":       metaDoc(`<severity><matrix metric="0"></matrix></severity>`),
		"selfclosing matrix": metaDoc(`<severity><matrix metric="0"/></severity>`),
		"selfclosing row":    metaDoc(`<severity><matrix metric="0"><row cnode="0"/></matrix></severity>`),
		"no severity":        metaDoc(``),
		"whitespace forms":   metaDoc("<severity><matrix metric=\"0\"><row cnode=\"0\">\t 1.5\r\n2 \n</row></matrix></severity>"),
		"value spellings":    metaDoc(`<severity><matrix metric="0"><row cnode="0">+1.25e2 -0.5</row><row cnode="1">1E-3 00012</row></matrix></severity>`),
		"long mantissa":      metaDoc(`<severity><matrix metric="0"><row cnode="0">0.30000000000000004 12345678901234567890123</row></matrix></severity>`),
		"extreme exponents":  metaDoc(`<severity><matrix metric="0"><row cnode="0">1e308 4.9e-324</row></matrix></severity>`),
		"trailing dot":       metaDoc(`<severity><matrix metric="0"><row cnode="0">5. .5</row></matrix></severity>`),

		// Errors the fast path must report with the legacy decoder's text.
		"unknown metric":    metaDoc(`<severity><matrix metric="9"><row cnode="0">1 2</row></matrix></severity>`),
		"unknown cnode":     metaDoc(`<severity><matrix metric="0"><row cnode="9">1 2</row></matrix></severity>`),
		"too few values":    metaDoc(`<severity><matrix metric="0"><row cnode="0">1</row></matrix></severity>`),
		"too many values":   metaDoc(`<severity><matrix metric="0"><row cnode="0">1 2 3</row></matrix></severity>`),
		"bad value":         metaDoc(`<severity><matrix metric="0"><row cnode="0">banana 2</row></matrix></severity>`),
		"underscore value":  metaDoc(`<severity><matrix metric="0"><row cnode="0">1_000 2</row></matrix></severity>`),
		"hex value":         metaDoc(`<severity><matrix metric="0"><row cnode="0">0x1p4 2</row></matrix></severity>`),
		"nan value":         metaDoc(`<severity><matrix metric="0"><row cnode="0">NaN 2</row></matrix></severity>`),
		"inf value":         metaDoc(`<severity><matrix metric="0"><row cnode="0">2 -Inf</row></matrix></severity>`),
		"second matrix err": metaDoc(`<severity><matrix metric="0"><row cnode="0">1 2</row></matrix><matrix metric="1"><row cnode="7">1 2</row></matrix></severity>`),
		"err order":         metaDoc(`<severity><matrix metric="0"><row cnode="0">bad 2</row></matrix><matrix metric="9"><row cnode="0">1 2</row></matrix></severity>`),

		// Outside the fast-path subset: must silently fall back.
		"entity in row":  metaDoc(`<severity><matrix metric="0"><row cnode="0">&#49; 2</row></matrix></severity>`),
		"entity named":   metaDoc(`<severity><matrix metric="0"><row cnode="0">1&amp;2 2</row></matrix></severity>`),
		"comment in sev": metaDoc(`<severity><!-- c --><matrix metric="0"><row cnode="0">1 2</row></matrix></severity>`),
		"pi in severity": metaDoc(`<severity><?p?><matrix metric="0"><row cnode="0">1 2</row></matrix></severity>`),
		"cdata in row":   metaDoc(`<severity><matrix metric="0"><row cnode="0"><![CDATA[1]]> 2</row></matrix></severity>`),
		"dup matrices":   metaDoc(`<severity><matrix metric="0"><row cnode="0">1 2</row></matrix><matrix metric="0"><row cnode="0">3 4</row></matrix></severity>`),
		"dup rows":       metaDoc(`<severity><matrix metric="0"><row cnode="0">1 2</row><row cnode="0">3 4</row></matrix></severity>`),
		"vertical tab":   metaDoc("<severity><matrix metric=\"0\"><row cnode=\"0\">1\v2</row></matrix></severity>"),
		"non-ascii row":  metaDoc(`<severity><matrix metric="0"><row cnode="0">1…2</row></matrix></severity>`),
		"doctype":        "<!DOCTYPE cube>" + metaDoc(``),
		"utf8 names":     strings.Replace(metaDoc(``), "<title>eq</title>", "<title>héllo &amp; 日本</title>", 1),
		"cdata title":    strings.Replace(metaDoc(``), "<title>eq</title>", "<title><![CDATA[raw <stuff>]]></title>", 1),
		"comment meta":   strings.Replace(metaDoc(``), "<metrics>", "<!-- c --><metrics>", 1),

		// Structural and metadata errors (canonical text via fallback).
		"wrong version":   `<cube version="cube-go-99"></cube>`,
		"bad unit":        `<cube version="cube-go-1.0"><metrics><metric id="0"><name>X</name><uom>potatoes</uom></metric></metrics></cube>`,
		"dup metric id":   `<cube version="cube-go-1.0"><metrics><metric id="0"><name>X</name><uom>sec</uom></metric><metric id="0"><name>Y</name><uom>sec</uom></metric></metrics></cube>`,
		"invalid exp":     `<cube version="cube-go-1.0"><system><machine name="m"><node name="n"><process rank="0"><thread id="0"/></process><process rank="0"><thread id="0"/></process></node></machine></system></cube>`,
		"mismatched tags": metaDoc(`<severity><matrix metric="0"></severity></matrix>`),
		"junk after root": metaDoc(``) + "trailing garbage",
		"empty doc":       "",
		"not xml":         "garbage",
		"bare root":       `<cube version="cube-go-1.0"></cube>`,
	}
	for name, doc := range cases {
		checkEquivalent(t, name, []byte(doc), DefaultLimits)
	}
}

// TestEngineEquivalenceTruncated cuts a writer-produced document at many
// offsets; both engines must fail identically on every prefix.
func TestEngineEquivalenceTruncated(t *testing.T) {
	data := []byte(bufString(sample(), t))
	for cut := 0; cut < len(data); cut += 97 {
		checkEquivalent(t, fmt.Sprintf("cut@%d", cut), data[:cut], DefaultLimits)
	}
}

// TestEngineEquivalenceLimits pins the Limits behaviour of the fast scan:
// identical errors and identical element accounting at the boundary.
func TestEngineEquivalenceLimits(t *testing.T) {
	data := []byte(bufString(sample(), t))
	elems := strings.Count(string(data), "<") - strings.Count(string(data), "</") - 1 // rough; exact below
	_ = elems
	for _, lim := range []Limits{
		{},                 // unlimited
		{MaxElements: 1},   // trips immediately
		{MaxElements: 10},  // trips inside metadata
		{MaxDepth: 2},      // trips on nesting
		{MaxDepth: 4},      // trips deeper
		DefaultLimits,      // passes
		{MaxElements: 500}, // passes
	} {
		checkEquivalent(t, fmt.Sprintf("lim=%+v", lim), data, lim)
	}
	deep := strings.Repeat("<a>", 60) + strings.Repeat("</a>", 60)
	checkEquivalent(t, "depth bomb", []byte(deep), Limits{MaxDepth: 10})
	flat := "<cube version=\"cube-go-1.0\">" + strings.Repeat("<attr key=\"k\" value=\"v\"></attr>", 50) + "</cube>"
	checkEquivalent(t, "element bomb", []byte(flat), Limits{MaxElements: 20})
}

// TestEngineEquivalenceQuick round-trips random experiments through both
// engines and also checks equivalence on randomly truncated variants.
func TestEngineEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExperiment(r)
		var buf bytes.Buffer
		if err := Write(&buf, e); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		data := buf.Bytes()
		checkEquivalent(t, fmt.Sprintf("seed=%d", seed), data, DefaultLimits)
		cut := r.Intn(len(data) + 1)
		checkEquivalent(t, fmt.Sprintf("seed=%d cut=%d", seed, cut), data[:cut], DefaultLimits)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEngineFastNoFallback asserts the fast path handles every document
// this package writes without bailing to the legacy decoder — EngineFast
// errors precisely when a fallback would have happened.
func TestEngineFastNoFallback(t *testing.T) {
	docs := [][]byte{
		[]byte(bufString(sample(), t)),
		[]byte(metaDoc(`<severity><matrix metric="0"><row cnode="0">1.5 2</row></matrix></severity>`)),
	}
	for i := int64(0); i < 20; i++ {
		docs = append(docs, []byte(bufString(randomExperiment(rand.New(rand.NewSource(i))), t)))
	}
	for i, data := range docs {
		e, err := ReadBytes(context.Background(), data, ReadOptions{Limits: DefaultLimits, Engine: EngineFast})
		if err != nil {
			t.Fatalf("doc %d: fast engine fell back: %v", i, err)
		}
		legacy, err := readLegacy(data, DefaultLimits)
		if err != nil {
			t.Fatal(err)
		}
		if e.Fingerprint() != legacy.Fingerprint() {
			t.Fatalf("doc %d: fast result differs from legacy", i)
		}
	}
	// And the other side: a document outside the subset errors instead of
	// falling back.
	outside := []byte(metaDoc(`<severity><matrix metric="0"><row cnode="0">&#49; 2</row></matrix></severity>`))
	if _, err := ReadBytes(context.Background(), outside, ReadOptions{Limits: DefaultLimits, Engine: EngineFast}); err == nil {
		t.Fatal("EngineFast accepted a document outside the fast-path subset")
	} else if !errors.Is(err, errBail) {
		t.Fatalf("EngineFast error = %v, want errBail", err)
	}
}

// TestParallelMatrixIngest parses a document with many matrices — enough
// to fan out over all workers — and cross-checks against legacy. Run with
// -race this doubles as the data-race check on the parallel ingest.
func TestParallelMatrixIngest(t *testing.T) {
	e := core.New("wide")
	var metrics []*core.Metric
	for i := 0; i < 48; i++ {
		metrics = append(metrics, e.NewMetric(fmt.Sprintf("m%02d", i), core.Seconds, ""))
	}
	mainR := e.NewRegion("main", "app", 0, 0)
	var cnodes []*core.CallNode
	root := e.NewCallRoot(e.NewCallSite("app", 0, mainR))
	cnodes = append(cnodes, root)
	for i := 0; i < 30; i++ {
		cnodes = append(cnodes, root.NewChild(e.NewCallSite("app", i+1, mainR)))
	}
	threads := e.SingleThreadedSystem("m", 1, 4)
	r := rand.New(rand.NewSource(7))
	for _, m := range metrics {
		for _, c := range cnodes {
			for _, th := range threads {
				if r.Intn(3) != 0 {
					e.SetSeverity(m, c, th, r.NormFloat64())
				}
			}
		}
	}
	data := []byte(bufString(e, t))

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := ReadBytes(context.Background(), data, ReadOptions{Limits: DefaultLimits, Engine: EngineFast})
			if err != nil {
				t.Errorf("fast read: %v", err)
				return
			}
			if got.Fingerprint() != e.Fingerprint() {
				t.Error("parallel ingest changed the experiment")
			}
		}()
	}
	wg.Wait()
}

func TestParseReadEngine(t *testing.T) {
	for s, want := range map[string]ReadEngine{"": EngineAuto, "auto": EngineAuto, "fast": EngineFast, "legacy": EngineLegacy} {
		got, err := ParseReadEngine(s)
		if err != nil || got != want {
			t.Errorf("ParseReadEngine(%q) = %v, %v; want %v", s, got, err, want)
		}
		if s != "" && got.String() != s {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParseReadEngine("turbo"); err == nil {
		t.Error("ParseReadEngine accepted unknown engine")
	}
}

// TestReadInfoEquivalence checks the streaming statistics against a full
// parse, on fast-subset documents and on fallback-forcing ones.
func TestReadInfoEquivalence(t *testing.T) {
	docs := map[string]string{
		"sample":   bufString(sample(), t),
		"plain":    metaDoc(`<severity><matrix metric="0"><row cnode="0">1.5 2</row></matrix><matrix metric="2"><row cnode="1">-3 0.5</row></matrix></severity>`),
		"fallback": metaDoc(`<severity><matrix metric="0"><row cnode="0">&#49; 2</row></matrix></severity>`),
		"empty":    metaDoc(``),
	}
	for i := int64(0); i < 10; i++ {
		docs[fmt.Sprintf("rnd%d", i)] = bufString(randomExperiment(rand.New(rand.NewSource(i))), t)
	}
	for name, doc := range docs {
		info, err := ReadInfo(context.Background(), strings.NewReader(doc), ReadOptions{Limits: DefaultLimits})
		if err != nil {
			t.Fatalf("%s: ReadInfo: %v", name, err)
		}
		full, err := readLegacy([]byte(doc), DefaultLimits)
		if err != nil {
			t.Fatalf("%s: legacy read: %v", name, err)
		}
		if info.NonZero != full.NonZeroCount() {
			t.Errorf("%s: NonZero = %d, want %d", name, info.NonZero, full.NonZeroCount())
		}
		if got, want := len(info.Experiment.Threads()), len(full.Threads()); got != want {
			t.Errorf("%s: threads = %d, want %d", name, got, want)
		}
		// Per-metric totals, matched by metric path.
		wantTotals := map[string]float64{}
		full.EachSeverity(func(m *core.Metric, _ *core.CallNode, _ *core.Thread, v float64) {
			wantTotals[m.Path()] += v
		})
		gotTotals := map[string]float64{}
		for m, v := range info.MetricTotal {
			if v != 0 {
				gotTotals[m.Path()] = v
			}
		}
		for p, want := range wantTotals {
			if got := gotTotals[p]; math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("%s: total[%s] = %g, want %g", name, p, got, want)
			}
		}
		for p := range gotTotals {
			if _, ok := wantTotals[p]; !ok {
				t.Errorf("%s: unexpected total for %s", name, p)
			}
		}
		// Errors surface with the same text as a full read.
	}
	bad := metaDoc(`<severity><matrix metric="0"><row cnode="0">bad 2</row></matrix></severity>`)
	_, errInfo := ReadInfo(context.Background(), strings.NewReader(bad), ReadOptions{Limits: DefaultLimits})
	_, errRead := readLegacy([]byte(bad), DefaultLimits)
	if errInfo == nil || errRead == nil || errInfo.Error() != errRead.Error() {
		t.Errorf("info error mismatch:\ninfo: %v\nread: %v", errInfo, errRead)
	}
}

// TestParseFloatMatchesStrconv pins parseFloat to strconv.ParseFloat on
// spellings covering the fast path's accept and reject branches.
func TestParseFloatMatchesStrconv(t *testing.T) {
	inputs := []string{
		"0", "-0", "+0", "1", "-1", "42", "1.5", "-2.25", "0.1", ".5", "5.",
		"1e3", "1E3", "1e+3", "1e-3", "-1.25e2", "9007199254740992", "9007199254740993",
		"1e22", "1e23", "1e-22", "1e-23", "1e308", "1e309", "4.9e-324", "1e-400",
		"0.30000000000000004", "123456789012345678901234567890", "00012", "0.000", "000.000e00",
		"1e", "e5", ".", "", "-", "+", "1.2.3", "1_000", "0x10", "Inf", "-Inf", "NaN", "nan",
		"1e99999999999999999999", "-1e99999999999999999999", "9999999999999999999", "1.7976931348623157e308",
	}
	for i := int64(0); i < 200; i++ {
		r := rand.New(rand.NewSource(i))
		v := r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
		inputs = append(inputs,
			strconv.FormatFloat(v, 'g', -1, 64),
			strconv.FormatFloat(v, 'e', r.Intn(18), 64),
			strconv.FormatFloat(v, 'f', r.Intn(18), 64),
		)
	}
	for _, s := range inputs {
		got, gotErr := parseFloat([]byte(s))
		want, wantErr := strconv.ParseFloat(s, 64)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("parseFloat(%q): err %v, strconv err %v", s, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("parseFloat(%q) error %q, want %q", s, gotErr, wantErr)
			}
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("parseFloat(%q) = %v (bits %x), strconv %v (bits %x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestAppendValueBoundary pins the first value past the integer fast-path
// boundary to its shortest-float spelling: widening the bound would emit
// a rounded integer that no longer round-trips.
func TestAppendValueBoundary(t *testing.T) {
	if got := string(appendValue(nil, 1e15+1)); got != "1.000000000000001e+15" {
		t.Errorf("appendValue(1e15+1) = %q, want %q", got, "1.000000000000001e+15")
	}
	if got := string(appendValue(nil, 1e15-1)); got != "999999999999999" {
		t.Errorf("appendValue(1e15-1) = %q, want %q", got, "999999999999999")
	}
	for _, v := range []float64{0, -0.5, 1e15, -1e15, 1e15 + 1, -(1e15 + 1), 1e15 - 1, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2} {
		if got, want := string(appendValue(nil, v)), formatValue(v); got != want {
			t.Errorf("appendValue(%v) = %q, formatValue = %q", v, got, want)
		}
		back, err := strconv.ParseFloat(string(appendValue(nil, v)), 64)
		if err != nil || math.Float64bits(back) != math.Float64bits(v) {
			t.Errorf("appendValue(%v) does not round-trip: %v %v", v, back, err)
		}
	}
}
