// Command compare reads two result sets of perfbench runs — directories
// of the records perfbench writes with --out — and reports every
// (end-to-end metric, workload) row of the second set against the first
// under the bounds in BENCHMARK.json:
//
//	bash perfbench/run.sh compare [-spec BENCHMARK.json] BASE_DIR NEW_DIR
//
// A row is "unresolved" when either set's spread (interquartile range
// over median) is wider than the metric's bound, unless every run of
// the new set is better than every run of the base; "regressed" when
// the new median is worse than the base median by more than the bound;
// "improved" when it is better by more than the bound; otherwise "ok".
// Per-layer metrics from traced runs are listed without a verdict. The
// exit status is 1 when any row regressed or is unresolved, or any run
// failed its output checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// record is the part of a perfbench run record the comparer reads.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Failed   int    `json:"failed"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// set maps workload → trace mode → metric → one value per run.
type set map[string]map[bool]map[string][]float64

func load(dir string) (set, int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, 0, err
	}
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("%s: no run records", dir)
	}
	s, failed := set{}, 0
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, 0, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", p, err)
		}
		failed += r.Failed
		if s[r.Workload] == nil {
			s[r.Workload] = map[bool]map[string][]float64{}
		}
		if s[r.Workload][r.Trace] == nil {
			s[r.Workload][r.Trace] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s[r.Workload][r.Trace][name] = append(s[r.Workload][r.Trace][name], m.Value)
		}
	}
	return s, failed, nil
}

// quantile uses the exclusive method of Python's statistics.quantiles.
func quantile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0]
	}
	h := p * float64(n+1)
	if h <= 1 {
		return s[0]
	}
	if h >= float64(n) {
		return s[n-1]
	}
	j := int(h)
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

func spread(v []float64) float64 {
	m := quantile(v, 0.5)
	if m == 0 {
		return math.Inf(1)
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / math.Abs(m)
}

// verdict classifies one row.
func verdict(m metricSpec, base, cand []float64) (string, float64) {
	mb, mc := quantile(base, 0.5), quantile(cand, 0.5)
	worse := (mc - mb) / math.Abs(mb)
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, c := range cand {
		for _, b := range base {
			if (m.Better == "higher" && c <= b) || (m.Better != "higher" && c >= b) {
				allBetter = false
			}
		}
	}
	switch {
	case math.Max(spread(base), spread(cand)) > m.Bound && !allBetter:
		return "unresolved", worse
	case worse > m.Bound:
		return "regressed", worse
	case -worse > m.Bound:
		return "improved", worse
	}
	return "ok", worse
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition with the bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] BASE_DIR NEW_DIR")
		os.Exit(2)
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fail(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		fail(fmt.Errorf("%s: %w", *specPath, err))
	}
	base, baseFailed, err := load(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	cand, candFailed, err := load(flag.Arg(1))
	if err != nil {
		fail(err)
	}

	bad := baseFailed > 0 || candFailed > 0
	fmt.Printf("%-11s %-14s %5s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "runs", "base", "spread", "new", "spread", "worse", "bound", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			b, c := base[w.Name][false][m.Name], cand[w.Name][false][m.Name]
			if len(b) == 0 || len(c) == 0 {
				fmt.Printf("%-11s %-14s missing in one set\n", w.Name, m.Name)
				bad = true
				continue
			}
			v, worse := verdict(m, b, c)
			if v == "unresolved" || v == "regressed" {
				bad = true
			}
			fmt.Printf("%-11s %-14s %2d/%-2d %12.5g %7.3f %12.5g %7.3f %+8.3f %6.2f  %s\n",
				w.Name, m.Name, len(b), len(c), quantile(b, 0.5), spread(b), quantile(c, 0.5), spread(c), worse, m.Bound, v)
		}
	}
	var layers []string
	for _, w := range sp.Workloads {
		for _, m := range sp.PerLayer {
			b, c := base[w.Name][true][m.Name], cand[w.Name][true][m.Name]
			if len(b) == 0 || len(c) == 0 || (quantile(b, 0.5) == 0 && quantile(c, 0.5) == 0) {
				continue
			}
			layers = append(layers, fmt.Sprintf("%-11s %-24s %2d/%-2d %12.5g %12.5g %s", w.Name, m.Name,
				len(b), len(c), quantile(b, 0.5), quantile(c, 0.5), m.Unit))
		}
	}
	if len(layers) > 0 {
		fmt.Printf("\nper-layer medians (traced runs; no bound)\n%s\n", strings.Join(layers, "\n"))
	}
	if baseFailed > 0 || candFailed > 0 {
		fmt.Printf("\nfailed output checks: base %d, new %d\n", baseFailed, candFailed)
	}
	if bad {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}
