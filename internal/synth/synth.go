// Package synth builds the deterministic synthetic experiments the
// operator and codec benchmarks share, so a size such as 64×512×64 names
// the same document everywhere.
package synth

import (
	"fmt"

	"cube/internal/core"
)

// Experiment builds an experiment with the given dimension sizes: a
// binary metric tree, a binary call tree, and threads spread over four
// nodes of one machine, with every third (metric, call node, thread)
// tuple set. shift perturbs severities and call-site naming so that two
// synthetics are related but not identical.
func Experiment(metrics, cnodes, threads, shift int) *core.Experiment {
	e := core.New(fmt.Sprintf("synth-%d-%d-%d-%d", metrics, cnodes, threads, shift))
	root := e.NewMetric("Time", core.Seconds, "")
	ms := []*core.Metric{root}
	for i := 1; i < metrics; i++ {
		parent := ms[i/2]
		ms = append(ms, parent.NewChild(fmt.Sprintf("m%d", i), ""))
	}
	mainR := e.NewRegion("main", "app", 0, 0)
	croot := e.NewCallRoot(e.NewCallSite("app", 0, mainR))
	cs := []*core.CallNode{croot}
	for i := 1; i < cnodes; i++ {
		reg := e.NewRegion(fmt.Sprintf("f%d", i+shift%3), "app", i, 0)
		parent := cs[i/2]
		cs = append(cs, parent.NewChild(e.NewCallSite("app", i, reg)))
	}
	e.Invalidate()
	ths := e.SingleThreadedSystem("mach", 4, threads)
	for mi, m := range ms {
		for ci, c := range cs {
			for ti, th := range ths {
				if (mi+ci+ti)%3 == 0 {
					e.SetSeverity(m, c, th, float64(mi*ci+ti+shift)+0.5)
				}
			}
		}
	}
	return e
}
