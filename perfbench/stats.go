package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of sorted data by the exclusive
// method (position p·(n+1)), the method Python's statistics.quantiles
// uses by default, so recorded quartiles match what a reader computes
// from the raw samples.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	h := p * float64(n+1)
	if h <= 1 {
		return sorted[0]
	}
	if h >= float64(n) {
		return sorted[n-1]
	}
	j := int(h)
	return sorted[j-1] + (h-float64(j))*(sorted[j]-sorted[j-1])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// Stat is one recorded statistic: the value the run reports for a
// metric, with the samples it summarizes. Timings carry quartiles,
// and p99 only when at least ten samples lie beyond it.
type Stat struct {
	Name      string   `json:"name"`
	Unit      string   `json:"unit"`
	Statistic string   `json:"statistic"`
	N         int      `json:"n"`
	Value     float64  `json:"value"`
	Q1        *float64 `json:"q1,omitempty"`
	Q3        *float64 `json:"q3,omitempty"`
	P99       *float64 `json:"p99,omitempty"`
}

// summarize reduces samples to their median with quartiles (and p99
// where n ≥ 1000).
func summarize(name, unit string, samples []float64) Stat {
	s := sortedCopy(samples)
	st := Stat{Name: name, Unit: unit, Statistic: "median", N: len(s), Value: quantile(s, 0.5)}
	if len(s) >= 2 {
		q1, q3 := quantile(s, 0.25), quantile(s, 0.75)
		st.Q1, st.Q3 = &q1, &q3
	}
	if len(s) >= 1000 {
		p := quantile(s, 0.99)
		st.P99 = &p
	}
	return st
}

// geomean of positive values.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}
