package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"cube/internal/core"
	"cube/internal/obs"
)

// span is one timed call in the traced replay. Spans live in memory and
// are written out when the run ends.
type span struct {
	Req    int     `json:"req"`    // request index; -1 for set-up work
	Name   string  `json:"name"`   // layer name
	Parent int     `json:"parent"` // index of the enclosing span; -1 at top level
	Start  float64 `json:"start_ms"`
	Dur    float64 `json:"dur_ms"`
}

// recorder records the replay's spans. The replay is single-threaded, so
// a stack of open spans gives each new span its parent.
type recorder struct {
	t0    time.Time
	req   int
	spans []span
	open  []int
	start []time.Time
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), req: -1} }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	now := time.Now()
	r.spans = append(r.spans, span{Req: r.req, Name: name, Parent: parent, Start: ms(now.Sub(r.t0))})
	r.open = append(r.open, len(r.spans)-1)
	r.start = append(r.start, now)
	return len(r.spans) - 1
}

// end closes the innermost open span.
func (r *recorder) end() {
	i, t := r.open[len(r.open)-1], r.start[len(r.start)-1]
	r.open, r.start = r.open[:len(r.open)-1], r.start[:len(r.start)-1]
	r.spans[i].Dur = ms(time.Since(t))
}

// coreStages maps the stage spans core emits to layer names.
var coreStages = map[string]string{
	"integrate":   "core.integrate",
	"lower":       "core.lower",
	"kernel":      "core.kernel",
	"materialize": "core.materialize",
}

// coreSplit adds the operator work recorded under root (the obs span
// passed through core.Options.Trace) as children of span parent. When
// parent is the benchmark's own core.op span, the stages go straight
// under it; otherwise (an expression evaluation, which runs operators
// itself) a core.op span covering every op.* span is added first.
func (r *recorder) coreSplit(parent int, root *obs.Span) {
	var ops []*obs.Span
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		for _, c := range s.Children() {
			if strings.HasPrefix(c.Name(), "op.") {
				ops = append(ops, c)
				continue
			}
			walk(c)
		}
	}
	walk(root)
	if len(ops) == 0 {
		return
	}
	if r.spans[parent].Name != "core.op" {
		var total time.Duration
		for _, op := range ops {
			total += op.Duration()
		}
		r.spans = append(r.spans, span{Req: r.req, Name: "core.op", Parent: parent,
			Start: ms(ops[0].Start().Sub(r.t0)), Dur: ms(total)})
		parent = len(r.spans) - 1
	}
	// Stage spans of one name can overlap (kernel shards run in
	// parallel): each stage counts the wall time its spans cover.
	byStage := map[string][][2]time.Time{}
	var stages func(s *obs.Span)
	stages = func(s *obs.Span) {
		for _, c := range s.Children() {
			if name, ok := coreStages[c.Name()]; ok {
				byStage[name] = append(byStage[name], [2]time.Time{c.Start(), c.Start().Add(c.Duration())})
				continue // nested spans (radix-sort) belong to their stage
			}
			stages(c)
		}
	}
	for _, op := range ops {
		stages(op)
	}
	for name, iv := range byStage {
		start, covered := coverage(iv)
		r.spans = append(r.spans, span{Req: r.req, Name: name, Parent: parent,
			Start: ms(start.Sub(r.t0)), Dur: ms(covered)})
	}
}

// coverage returns the earliest start of the intervals and the length of
// their union.
func coverage(iv [][2]time.Time) (time.Time, time.Duration) {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0].After(cur[1]) {
			total += cur[1].Sub(cur[0])
			cur = x
		} else if x[1].After(cur[1]) {
			cur[1] = x[1]
		}
	}
	return iv[0][0], total + cur[1].Sub(cur[0])
}

// selfTimes returns, per request, each layer's self time in ms: its
// spans' durations minus the time of their child spans.
func (r *recorder) selfTimes() map[int]map[string]float64 {
	out := map[int]map[string]float64{}
	for _, s := range r.spans {
		if out[s.Req] == nil {
			out[s.Req] = map[string]float64{}
		}
		out[s.Req][s.Name] += s.Dur
		if s.Parent >= 0 {
			p := r.spans[s.Parent]
			out[s.Req][p.Name] -= s.Dur
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerNode is one node of the breakdown experiment's call tree.
type layerNode struct {
	name     string
	children []layerNode
}

// layerTree is the call tree of the breakdown experiment: the request
// path, with every layer under the one whose work encloses it. The
// severities are exclusive, so the tree's total is the round trip.
var layerTree = layerNode{"request", []layerNode{
	{"client.encode", nil},
	{"http.transport", nil},
	{"server", []layerNode{
		{"store.get", nil},
		{"cubexml.read", nil},
		{"expr.eval", nil},
		{"core.op", []layerNode{
			{"core.integrate", nil},
			{"core.lower", nil},
			{"core.kernel", nil},
			{"core.materialize", nil},
		}},
		{"cubexml.write", nil},
	}},
	{"client.decode", nil},
}}

// breakdownExperiment renders a traced run as a CUBE experiment: metric
// "time" holds each layer's exclusive median time per request (seconds)
// and metric "bytes" the request and response bodies; the call tree is
// layerTree; the system is one thread named after the workload. Two
// commits' breakdowns diff with cube-diff, layer by layer.
func breakdownExperiment(workload string, seed int64, selfMS map[string]float64, reqBytes, respBytes float64) (*core.Experiment, error) {
	e := core.New(fmt.Sprintf("cubebench %s seed %d", workload, seed))
	timeM := e.NewMetric("time", core.Seconds, "median exclusive time per request")
	bytesM := e.NewMetric("bytes", core.Bytes, "HTTP body bytes per request")
	nodes := map[string]*core.CallNode{}
	line := 0
	var build func(n layerNode, parent *core.CallNode)
	build = func(n layerNode, parent *core.CallNode) {
		line++
		site := e.NewCallSite("cubebench", line, e.NewRegion(n.name, "cubebench", line, line))
		var c *core.CallNode
		if parent == nil {
			c = e.NewCallRoot(site)
		} else {
			c = parent.NewChild(site)
		}
		nodes[n.name] = c
		for _, k := range n.children {
			build(k, c)
		}
	}
	build(layerTree, nil)
	e.Invalidate()
	th := e.SingleThreadedSystem(workload, 1, 1)[0]
	for name, v := range selfMS {
		if c, ok := nodes[name]; ok && v != 0 {
			e.SetSeverity(timeM, c, th, v/1000)
		}
	}
	if reqBytes > 0 {
		e.SetSeverity(bytesM, nodes["client.encode"], th, reqBytes)
	}
	if respBytes > 0 {
		e.SetSeverity(bytesM, nodes["client.decode"], th, respBytes)
	}
	return e, e.Validate()
}
