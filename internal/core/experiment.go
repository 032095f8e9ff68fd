package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Experiment is a valid instance of the CUBE data model: metadata (a metric
// forest, program resources, and a system forest) plus data (the severity
// function mapping (metric, call path, thread) tuples onto accumulated
// metric values).
//
// Experiments are either original (collected during a real run, a
// simulation, or produced by an analytical model) or derived (the result of
// an algebraic operator). Both kinds are full experiments and can be
// processed, stored, and displayed identically — the algebra's closure
// property.
//
// Metadata is built through the New*/Add* methods. Mutating trees directly
// (e.g. Metric.NewChild) after they were attached to an experiment is
// allowed, but the caller must then call Invalidate so cached enumerations
// are rebuilt. Severity values are keyed by node identity, so they survive
// metadata growth.
type Experiment struct {
	// Title labels the experiment, e.g. "pescan barriers=on run 3".
	Title string
	// Attrs carries free-form attributes (provenance, configuration).
	Attrs map[string]string
	// Derived is true when the experiment is the output of an operator.
	Derived bool
	// Operation names the operator that produced a derived experiment
	// ("difference", "merge", "mean", ...); empty for original data.
	Operation string
	// Parents lists the titles of the operand experiments of a derived
	// experiment, in operand order.
	Parents []string

	metricRoots []*Metric
	regions     []*Region
	callSites   []*CallSite
	callRoots   []*CallNode
	machines    []*Machine
	topology    *Topology

	sev map[sevKey]float64

	// Cached flattened enumerations and index maps; rebuilt lazily.
	dirty       bool
	metrics     []*Metric
	cnodes      []*CallNode
	procs       []*Process
	threads     []*Thread
	metricIndex map[*Metric]int
	cnodeIndex  map[*CallNode]int
	threadIndex map[*Thread]int

	// Generation counters and the cached columnar lowering of the severity
	// store (see kernel.go). sevGen advances on every severity mutation,
	// metaGen on every enumeration rebuild; the lowered block is valid only
	// while both match the generations it was built at.
	sevGen         uint64
	metaGen        uint64
	lowered        *sevBlock
	loweredSevGen  uint64
	loweredMetaGen uint64

	// Cached whole-forest metadata digest (metadigest.go). Valid only while
	// its generation matches metaGen; the atomic pointer makes concurrent
	// MetaDigest calls on an immutable (compacted, shared) experiment safe.
	metaDigest atomic.Pointer[metaDigestCache]
}

type sevKey struct {
	m *Metric
	c *CallNode
	t *Thread
}

// New returns an empty experiment with the given title.
func New(title string) *Experiment {
	return &Experiment{
		Title: title,
		Attrs: map[string]string{},
		sev:   map[sevKey]float64{},
		dirty: true,
	}
}

// Invalidate discards cached enumerations after external metadata mutation.
func (e *Experiment) Invalidate() { e.dirty = true }

func (e *Experiment) reindex() {
	if !e.dirty {
		return
	}
	// A lazily stored severity function (kernel result, sev == nil) lives
	// only in the columnar block, whose indices reference the enumeration
	// about to be rebuilt — materialise the pointer-keyed map first, while
	// the old enumeration is still intact.
	e.ensureSev()
	e.metrics = e.metrics[:0]
	e.cnodes = e.cnodes[:0]
	e.procs = e.procs[:0]
	e.threads = e.threads[:0]
	for _, r := range e.metricRoots {
		r.Walk(func(m *Metric) { e.metrics = append(e.metrics, m) })
	}
	for _, r := range e.callRoots {
		r.Walk(func(n *CallNode) { e.cnodes = append(e.cnodes, n) })
	}
	for _, mach := range e.machines {
		for _, nd := range mach.Nodes() {
			for _, p := range nd.Processes() {
				e.procs = append(e.procs, p)
				e.threads = append(e.threads, p.Threads()...)
			}
		}
	}
	e.metricIndex = make(map[*Metric]int, len(e.metrics))
	for i, m := range e.metrics {
		e.metricIndex[m] = i
	}
	e.cnodeIndex = make(map[*CallNode]int, len(e.cnodes))
	for i, n := range e.cnodes {
		e.cnodeIndex[n] = i
	}
	e.threadIndex = make(map[*Thread]int, len(e.threads))
	for i, t := range e.threads {
		e.threadIndex[t] = i
	}
	e.dirty = false
	// Enumeration indices changed, so any columnar lowering is stale.
	e.metaGen++
}

// --- Metadata construction -------------------------------------------------

// NewMetric creates a root metric, attaches it to the experiment, and
// returns it.
func (e *Experiment) NewMetric(name string, unit Unit, description string) *Metric {
	m := NewMetric(name, unit, description)
	e.metricRoots = append(e.metricRoots, m)
	e.dirty = true
	return m
}

// AddMetricRoot attaches existing root metrics to the experiment.
func (e *Experiment) AddMetricRoot(roots ...*Metric) error {
	for _, m := range roots {
		if m.parent != nil {
			return fmt.Errorf("core: metric %q is not a root", m.Name)
		}
		e.metricRoots = append(e.metricRoots, m)
	}
	e.dirty = true
	return nil
}

// NewRegion creates a region, registers it, and returns it.
func (e *Experiment) NewRegion(name, module string, beginLine, endLine int) *Region {
	r := &Region{Name: name, Module: module, BeginLine: beginLine, EndLine: endLine}
	e.regions = append(e.regions, r)
	return r
}

// AddRegion registers existing regions.
func (e *Experiment) AddRegion(rs ...*Region) {
	e.regions = append(e.regions, rs...)
}

// NewCallSite creates a call site entering callee, registers it, and returns
// it. The callee should be registered with the experiment as well.
func (e *Experiment) NewCallSite(file string, line int, callee *Region) *CallSite {
	s := &CallSite{File: file, Line: line, Callee: callee}
	e.callSites = append(e.callSites, s)
	return s
}

// AddCallSite registers existing call sites.
func (e *Experiment) AddCallSite(ss ...*CallSite) {
	e.callSites = append(e.callSites, ss...)
}

// NewCallRoot creates a root call node entered via site, attaches it, and
// returns it.
func (e *Experiment) NewCallRoot(site *CallSite) *CallNode {
	n := NewCallNode(site)
	e.callRoots = append(e.callRoots, n)
	e.dirty = true
	return n
}

// AddCallRoot attaches existing root call nodes to the experiment.
func (e *Experiment) AddCallRoot(roots ...*CallNode) error {
	for _, n := range roots {
		if n.parent != nil {
			return fmt.Errorf("core: call node %q is not a root", n.Path())
		}
		e.callRoots = append(e.callRoots, n)
	}
	e.dirty = true
	return nil
}

// NewMachine creates a machine, attaches it, and returns it.
func (e *Experiment) NewMachine(name string) *Machine {
	m := NewMachine(name)
	e.machines = append(e.machines, m)
	e.dirty = true
	return m
}

// AddMachine attaches existing machines to the experiment.
func (e *Experiment) AddMachine(ms ...*Machine) {
	e.machines = append(e.machines, ms...)
	e.dirty = true
}

// --- Metadata access -------------------------------------------------------

// MetricRoots returns the roots of the metric forest in insertion order.
func (e *Experiment) MetricRoots() []*Metric { return e.metricRoots }

// Regions returns the registered regions in insertion order.
func (e *Experiment) Regions() []*Region { return e.regions }

// CallSites returns the registered call sites in insertion order.
func (e *Experiment) CallSites() []*CallSite { return e.callSites }

// CallRoots returns the roots of the call forest in insertion order.
func (e *Experiment) CallRoots() []*CallNode { return e.callRoots }

// Machines returns the machines in insertion order.
func (e *Experiment) Machines() []*Machine { return e.machines }

// Metrics returns all metrics of the forest in pre-order. The returned
// slice is owned by the experiment and must not be modified.
func (e *Experiment) Metrics() []*Metric {
	e.reindex()
	return e.metrics
}

// CallNodes returns all call-tree nodes in pre-order. The returned slice is
// owned by the experiment and must not be modified.
func (e *Experiment) CallNodes() []*CallNode {
	e.reindex()
	return e.cnodes
}

// Processes returns all processes in machine/node order. The returned slice
// is owned by the experiment and must not be modified.
func (e *Experiment) Processes() []*Process {
	e.reindex()
	return e.procs
}

// Threads returns all threads in machine/node/process order. The returned
// slice is owned by the experiment and must not be modified.
func (e *Experiment) Threads() []*Thread {
	e.reindex()
	return e.threads
}

// MetricIndex returns the position of m in Metrics(), if registered.
func (e *Experiment) MetricIndex(m *Metric) (int, bool) {
	e.reindex()
	i, ok := e.metricIndex[m]
	return i, ok
}

// CallNodeIndex returns the position of n in CallNodes(), if registered.
func (e *Experiment) CallNodeIndex(n *CallNode) (int, bool) {
	e.reindex()
	i, ok := e.cnodeIndex[n]
	return i, ok
}

// ThreadIndex returns the position of t in Threads(), if registered.
func (e *Experiment) ThreadIndex(t *Thread) (int, bool) {
	e.reindex()
	i, ok := e.threadIndex[t]
	return i, ok
}

// FindMetric returns the first metric with the given path (names from the
// root separated by "/"), or nil.
func (e *Experiment) FindMetric(path string) *Metric {
	for _, m := range e.Metrics() {
		if m.Path() == path {
			return m
		}
	}
	return nil
}

// FindMetricByName returns the first metric (pre-order) with the given
// name, or nil.
func (e *Experiment) FindMetricByName(name string) *Metric {
	for _, m := range e.Metrics() {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// FindRegion returns the first registered region with the given name, or
// nil.
func (e *Experiment) FindRegion(name string) *Region {
	for _, r := range e.regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// FindCallNode returns the first call node (pre-order) whose Path equals
// path, or nil.
func (e *Experiment) FindCallNode(path string) *CallNode {
	for _, n := range e.CallNodes() {
		if n.Path() == path {
			return n
		}
	}
	return nil
}

// FindProcess returns the process with the given rank, or nil.
func (e *Experiment) FindProcess(rank int) *Process {
	for _, p := range e.Processes() {
		if p.Rank == rank {
			return p
		}
	}
	return nil
}

// FindThread returns the thread with the given rank and thread id, or nil.
func (e *Experiment) FindThread(rank, id int) *Thread {
	for _, t := range e.Threads() {
		if t.proc.Rank == rank && t.ID == id {
			return t
		}
	}
	return nil
}

// --- Severity function -----------------------------------------------------

// ensureSev materialises the pointer-keyed severity map from the cached
// columnar block. Kernel operators (kernel.go) leave their result in
// columnar form only — the map is a view, built lazily on the first
// map-based access. Callers that only stream severities (EachSeverity,
// Fingerprint, further kernel operators) never pay for it.
func (e *Experiment) ensureSev() {
	if e.sev != nil {
		return
	}
	b := e.lowered
	if b == nil || e.loweredSevGen != e.sevGen || e.loweredMetaGen != e.metaGen {
		// No columnar source (install always leaves a valid block, so this
		// only happens on experiments that never held severities).
		e.sev = map[sevKey]float64{}
		return
	}
	e.sev = make(map[sevKey]float64, b.len())
	for i, v := range b.val {
		mi, ci, ti := b.at(i)
		e.sev[sevKey{e.metrics[mi], e.cnodes[ci], e.threads[ti]}] = v
	}
}

// sevMap returns the pointer-keyed severity map, materialising it first if a
// kernel operator left the experiment in columnar-only form.
func (e *Experiment) sevMap() map[sevKey]float64 {
	e.ensureSev()
	return e.sev
}

// Severity returns the accumulated value of metric m measured while thread t
// was executing in call path c. Undefined tuples are zero. The stored value
// is exclusive along both the metric tree and the call tree: it belongs to
// exactly m (not m's descendants) at exactly c (not c's descendants).
func (e *Experiment) Severity(m *Metric, c *CallNode, t *Thread) float64 {
	e.ensureSev()
	return e.sev[sevKey{m, c, t}]
}

// SetSeverity sets the severity of the (m, c, t) tuple. Severities may be
// negative (e.g. in difference experiments). Setting zero removes the tuple
// from the underlying sparse store.
func (e *Experiment) SetSeverity(m *Metric, c *CallNode, t *Thread, v float64) {
	e.ensureSev()
	e.sevGen++
	k := sevKey{m, c, t}
	if v == 0 {
		delete(e.sev, k)
		return
	}
	e.sev[k] = v
}

// AddSeverity accumulates v onto the severity of the (m, c, t) tuple.
func (e *Experiment) AddSeverity(m *Metric, c *CallNode, t *Thread, v float64) {
	if v == 0 {
		return
	}
	e.ensureSev()
	e.sevGen++
	k := sevKey{m, c, t}
	nv := e.sev[k] + v
	if nv == 0 {
		delete(e.sev, k)
		return
	}
	e.sev[k] = nv
}

// NonZeroCount returns the number of stored non-zero severity tuples.
func (e *Experiment) NonZeroCount() int {
	if e.sev == nil && e.lowered != nil && e.loweredSevGen == e.sevGen && e.loweredMetaGen == e.metaGen {
		return e.lowered.len()
	}
	return len(e.sev)
}

// EachSeverity calls fn for every stored non-zero severity tuple in a
// deterministic order (metric, call node, thread enumeration order). The
// iteration runs off the cached columnar lowering, so repeated traversals
// cost no per-call sort. Tuples referencing unregistered metadata (possible
// only on invalid experiments) are skipped.
func (e *Experiment) EachSeverity(fn func(m *Metric, c *CallNode, t *Thread, v float64)) {
	b := e.loweredBlock()
	for i, v := range b.val {
		mi, ci, ti := b.at(i)
		fn(e.metrics[mi], e.cnodes[ci], e.threads[ti], v)
	}
}

// EachSeverityRow calls fn for every (metric, call node) pair that stores
// at least one severity tuple, in enumeration order, with vals holding the
// row's per-thread values densely (absent tuples as zero). vals is reused
// between calls and is only valid for the duration of one call. Returning
// false stops the iteration. Like EachSeverity, the walk runs off the
// cached columnar lowering without materialising the map view. It is the
// single-range case of SeverityRanges.
func (e *Experiment) EachSeverityRow(fn func(mi, ci int, vals []float64) bool) {
	for _, r := range e.SeverityRanges(1) {
		r.EachRow(fn)
	}
}

// minRangeRows is the fewest rows an automatically sized SeverityRange
// covers: below it, starting a goroutine costs more than the row work it
// would take off another core.
const minRangeRows = 128

// SeverityRange is a contiguous run of whole (metric, call node) rows of
// an experiment's lowered severity block. It holds the block itself, so
// walking it reads no experiment state and ranges of one experiment may be
// walked concurrently.
type SeverityRange struct {
	b      *sevBlock
	lo, hi int
}

// SeverityRanges splits the severity store into row-aligned ranges that
// partition it in canonical order: walking them in order visits exactly
// the rows EachSeverityRow visits. With n > 0 it returns exactly n ranges,
// some empty when n exceeds the row count. With n <= 0 it picks up to
// GOMAXPROCS ranges of at least minRangeRows rows each (rows counted at
// their densest, one tuple per thread, so sparse rows only make ranges
// longer). It returns nil when there is nothing to walk: no threads or
// no stored tuples.
//
// The range boundaries come from splitting the tuples evenly and moving
// each cut forward to the next row start, which costs at most one row's
// worth of key comparisons per cut.
func (e *Experiment) SeverityRanges(n int) []SeverityRange {
	b := e.loweredBlock()
	if len(e.threads) == 0 || b.len() == 0 {
		return nil
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if most := b.len() / (minRangeRows * int(b.nT)); n > most {
			n = most
		}
		if n < 1 {
			n = 1
		}
	}
	out := make([]SeverityRange, n)
	lo := 0
	for k := range out {
		hi := b.len() * (k + 1) / n
		if hi < lo {
			hi = lo
		}
		for hi > 0 && hi < b.len() && b.key[hi]/b.nT == b.key[hi-1]/b.nT {
			hi++
		}
		out[k] = SeverityRange{b: b, lo: lo, hi: hi}
		lo = hi
	}
	return out
}

// Tuples returns the number of stored tuples in the range.
func (r SeverityRange) Tuples() int { return r.hi - r.lo }

// EachRow calls fn for every row of the range, in enumeration order, with
// the same contract as EachSeverityRow.
func (r SeverityRange) EachRow(fn func(mi, ci int, vals []float64) bool) {
	if r.hi == r.lo {
		return
	}
	b := r.b
	vals := make([]float64, b.nT)
	for i := r.lo; i < r.hi; {
		row := b.key[i] / b.nT // packed (metric, call node) of this row
		for t := range vals {
			vals[t] = 0
		}
		j := i
		for ; j < r.hi && b.key[j]/b.nT == row; j++ {
			vals[b.key[j]%b.nT] = b.val[j]
		}
		if !fn(int(row/b.nC), int(row%b.nC), vals) {
			return
		}
		i = j
	}
}

// CompactSeverities lowers the severity store to its columnar block and
// reports whether the block is now the primary store (the pointer-keyed
// map view was dropped). This fails only for invalid experiments whose
// map references unregistered metadata. Callers that hold many parsed
// experiments (the server's parse cache) compact them so clones take the
// cheap columnar path.
func (e *Experiment) CompactSeverities() bool {
	e.loweredBlock()
	return e.sev == nil
}

// --- Aggregation helpers ---------------------------------------------------

// MetricValue returns the severity of metric m at call node c summed over
// all threads (exclusive along both trees).
func (e *Experiment) MetricValue(m *Metric, c *CallNode) float64 {
	var s float64
	for _, t := range e.Threads() {
		s += e.Severity(m, c, t)
	}
	return s
}

// MetricTotal returns the severity of exactly metric m summed across the
// whole program and system (all call paths, all threads).
func (e *Experiment) MetricTotal(m *Metric) float64 {
	var s float64
	for _, c := range e.CallNodes() {
		s += e.MetricValue(m, c)
	}
	return s
}

// MetricInclusive returns MetricTotal summed over m and all of m's
// descendant metrics — the value a display shows for a collapsed metric
// node.
func (e *Experiment) MetricInclusive(m *Metric) float64 {
	var s float64
	m.Walk(func(d *Metric) { s += e.MetricTotal(d) })
	return s
}

// CallInclusive returns, for metric m (exclusive), the severity summed over
// call node c and all of c's descendants and all threads — the value a
// display shows for a collapsed call node.
func (e *Experiment) CallInclusive(m *Metric, c *CallNode) float64 {
	var s float64
	c.Walk(func(d *CallNode) { s += e.MetricValue(m, d) })
	return s
}

// ThreadTotal returns the severity of metric m at thread t summed over all
// call paths.
func (e *Experiment) ThreadTotal(m *Metric, t *Thread) float64 {
	var s float64
	for _, c := range e.CallNodes() {
		s += e.Severity(m, c, t)
	}
	return s
}

// GrandTotal returns the severity summed over every metric of the tree
// rooted at root, every call path and every thread. For a root "Time"
// metric this is the total accumulated time of the run.
func (e *Experiment) GrandTotal(root *Metric) float64 {
	return e.MetricInclusive(root)
}

// --- Dense snapshot ---------------------------------------------------------

// Dense is a dense three-dimensional snapshot of an experiment's severity
// function, indexed [metric][call node][thread] in the experiment's
// enumeration order — the representation the CUBE file format stores and
// the natural operand layout for element-wise operator arithmetic.
type Dense struct {
	Metrics   []*Metric
	CallNodes []*CallNode
	Threads   []*Thread
	Values    [][][]float64
}

// Dense materialises the experiment's severity function as a dense array.
func (e *Experiment) Dense() *Dense {
	e.reindex()
	d := &Dense{Metrics: e.metrics, CallNodes: e.cnodes, Threads: e.threads}
	d.Values = make([][][]float64, len(e.metrics))
	flat := make([]float64, len(e.metrics)*len(e.cnodes)*len(e.threads))
	for i := range d.Values {
		d.Values[i] = make([][]float64, len(e.cnodes))
		for j := range d.Values[i] {
			off := (i*len(e.cnodes) + j) * len(e.threads)
			d.Values[i][j] = flat[off : off+len(e.threads)]
		}
	}
	for k, v := range e.sevMap() {
		i, ok1 := e.metricIndex[k.m]
		j, ok2 := e.cnodeIndex[k.c]
		l, ok3 := e.threadIndex[k.t]
		if ok1 && ok2 && ok3 {
			d.Values[i][j][l] = v
		}
	}
	return d
}

// SetDense replaces the experiment's severity function with the contents of
// a dense array previously obtained from Dense (or constructed over the
// same enumerations).
func (e *Experiment) SetDense(d *Dense) error {
	e.reindex()
	if len(d.Metrics) != len(e.metrics) || len(d.CallNodes) != len(e.cnodes) || len(d.Threads) != len(e.threads) {
		return fmt.Errorf("core: dense shape %dx%dx%d does not match experiment %dx%dx%d",
			len(d.Metrics), len(d.CallNodes), len(d.Threads),
			len(e.metrics), len(e.cnodes), len(e.threads))
	}
	e.sevGen++
	e.sev = make(map[sevKey]float64)
	for i, m := range d.Metrics {
		for j, c := range d.CallNodes {
			for l, t := range d.Threads {
				if v := d.Values[i][j][l]; v != 0 {
					e.sev[sevKey{m, c, t}] = v
				}
			}
		}
	}
	return nil
}

// --- Convenience system construction ----------------------------------------

// SingleThreadedSystem builds a machine/node/process/thread hierarchy for a
// pure message-passing run: ranks 0..np-1 distributed round-robin-block over
// the given number of nodes, one thread per process. It returns the threads
// indexed by rank.
func (e *Experiment) SingleThreadedSystem(machine string, nodes, np int) []*Thread {
	per := make([]int, np)
	for i := range per {
		per[i] = 1
	}
	byRank := e.ThreadedSystem(machine, nodes, per)
	threads := make([]*Thread, np)
	for rank, ts := range byRank {
		threads[rank] = ts[0]
	}
	return threads
}

// ThreadedSystem builds a machine/node/process/thread hierarchy for a
// hybrid run: ranks 0..len(threadsPerRank)-1 distributed block-wise over
// the given number of nodes, with threadsPerRank[r] threads in process r
// (clamped to at least one — the thread level is mandatory). It returns
// the threads indexed by [rank][thread id].
func (e *Experiment) ThreadedSystem(machine string, nodes int, threadsPerRank []int) [][]*Thread {
	if nodes < 1 {
		nodes = 1
	}
	np := len(threadsPerRank)
	mach := e.NewMachine(machine)
	perNode := (np + nodes - 1) / nodes
	threads := make([][]*Thread, np)
	rank := 0
	for n := 0; n < nodes && rank < np; n++ {
		nd := mach.NewNode(fmt.Sprintf("node%02d", n))
		for i := 0; i < perNode && rank < np; i++ {
			p := nd.NewProcess(rank, fmt.Sprintf("rank %d", rank))
			nt := threadsPerRank[rank]
			if nt < 1 {
				nt = 1
			}
			for tid := 0; tid < nt; tid++ {
				threads[rank] = append(threads[rank], p.NewThread(tid, ""))
			}
			rank++
		}
	}
	e.dirty = true
	return threads
}
