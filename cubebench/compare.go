package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparator needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runSet maps workload → metric → values, one per run.
type runSet map[string]map[string][]float64

// readRunSet reads run outputs. Each path is a file, or a directory whose
// *.out files are read; a file holds the standard output of one run, whose
// last two lines are the {"run": ...} line and the result.
func readRunSet(paths []string) (runSet, error) {
	set := runSet{}
	for _, p := range paths {
		files := []string{p}
		if st, err := os.Stat(p); err != nil {
			return nil, err
		} else if st.IsDir() {
			entries, err := os.ReadDir(p)
			if err != nil {
				return nil, err
			}
			files = files[:0]
			for _, e := range entries {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".out") {
					files = append(files, filepath.Join(p, e.Name()))
				}
			}
		}
		for _, f := range files {
			wl, res, err := readRun(f)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			if set[wl] == nil {
				set[wl] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				set[wl][name] = append(set[wl][name], m.Value)
			}
		}
	}
	return set, nil
}

func readRun(path string) (string, *result, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	var workload string
	var res *result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var info struct {
			Run *runInfo `json:"run"`
		}
		if json.Unmarshal(line, &info) == nil && info.Run != nil {
			workload = info.Run.Workload
			continue
		}
		var r result
		if json.Unmarshal(line, &r) == nil && r.Metrics != nil {
			res = &r
		}
	}
	if err := sc.Err(); err != nil {
		return "", nil, err
	}
	if workload == "" || res == nil {
		return "", nil, fmt.Errorf("no run line and result line")
	}
	if !res.Correct {
		return "", nil, fmt.Errorf("run reported correct=false")
	}
	return workload, res, nil
}

// verdict compares the medians of one metric across the two sets against
// its bound: "ok" when B is not worse than A by more than the bound and
// each set's own spread (IQR/median) is within it, "WORSE" or "NOISY"
// otherwise.
func verdict(better string, bound float64, a, b []float64) string {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "n/a"
	}
	worse := (mb - ma) / math.Abs(ma)
	if better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "WORSE"
	case spread(a) > bound || spread(b) > bound:
		return "NOISY"
	}
	return "ok"
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// compareMain prints, per workload and metric, each set's median and
// quartiles and whether the sets agree within the metric's bound. It
// exits 1 when a bounded metric is worse or noisier than its bound.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cubebench compare [-bench BENCHMARK.json] RESULTS_A RESULTS_B")
		fmt.Fprintln(os.Stderr, "RESULTS are run-output files or directories of them; separate several with commas")
		return 2
	}
	b, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cubebench compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "cubebench compare:", err)
		return 2
	}
	sets := make([]runSet, 2)
	for i := range sets {
		if sets[i], err = readRunSet(strings.Split(fs.Arg(i), ",")); err != nil {
			fmt.Fprintln(os.Stderr, "cubebench compare:", err)
			return 2
		}
	}
	type rule struct {
		better string
		bound  float64 // NaN: no bound (per-layer)
	}
	rules := map[string]rule{}
	for _, m := range spec.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
	}
	for _, m := range spec.PerLayer {
		rules[m.Name] = rule{m.Better, math.NaN()}
	}
	var workloads []string
	for wl := range sets[0] {
		if sets[1][wl] != nil {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tn\tA median\tA q1\tA q3\tA spread\tn\tB median\tB q1\tB q3\tB spread\tΔ median\tbound\tverdict\t")
	bad := 0
	for _, wl := range workloads {
		var names []string
		for name := range sets[0][wl] {
			if _, ok := rules[name]; ok && sets[1][wl][name] != nil {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			a, bv := sets[0][wl][name], sets[1][wl][name]
			r := rules[name]
			aq1, _, aq3 := quartilesOrSelf(a)
			bq1, _, bq3 := quartilesOrSelf(bv)
			v, bound := "-", "-"
			if !math.IsNaN(r.bound) {
				v, bound = verdict(r.better, r.bound, a, bv), fmt.Sprintf("%.0f%%", 100*r.bound)
				if v != "ok" {
					bad++
				}
			}
			delta := "-"
			if ma := median(a); ma != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(median(bv)-ma)/math.Abs(ma))
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.1f%%\t%d\t%.4g\t%.4g\t%.4g\t%.1f%%\t%s\t%s\t%s\t\n",
				wl, name, len(a), median(a), aq1, aq3, 100*spread(a),
				len(bv), median(bv), bq1, bq3, 100*spread(bv), delta, bound, v)
		}
	}
	tw.Flush()
	if bad > 0 {
		fmt.Fprintf(out, "%d bounded metric(s) disagree or are noisier than their bound\n", bad)
		return 1
	}
	return 0
}

func quartilesOrSelf(xs []float64) (float64, float64, float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m, m
	}
	return quartiles(xs)
}
