package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"perfpredict"
	"perfpredict/internal/deps"
	"perfpredict/internal/kernels"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// searchKernels are the transformation-search inputs, priced at
// searchNominal on POWER1.
var searchKernels = []string{"f2", "f6", "matmul"}

var searchNominal = map[string]float64{"n": 100}

// searchTemplate is the 36-cell lattice the explore sweep evaluates:
// POWER1 with dispatch 2–5 × 1–3 FPUs × 1–3 FXUs.
const searchTemplate = `{"base_machine": "POWER1", "dispatch": [2, 5], "pipes": {"FPU": [1, 3], "FXU": [1, 3]}}`

// exploreSamples is how many cells per sweep are re-priced directly as
// a reference check.
const exploreSamples = 2

type searchKernel struct {
	name string
	src  string
}

// searchState is search's set-up: the target, the optimize inputs in
// seeded order, and the explore template, kernels and expanded cells.
type searchState struct {
	target   *machine.Machine
	order    []searchKernel
	tpl      *perfpredict.MachineTemplate
	explore  []perfpredict.ExploreKernel
	cells    int
	expanded []machine.Expanded
}

// runSearch: OptimizeCtx on f2, f6 and matmul (fresh segment and nest
// caches per call, one worker), then an ExploreCtx sweep of the
// 36-cell lattice over the ten Figure 7 kernels, cold and again warm.
// The only workload that runs xform, deps, the nest cache and explore.
func runSearch(b *bench) error {
	st, err := setup(b, func() (*searchState, error) {
		target, err := perfpredict.LoadTarget("POWER1")
		if err != nil {
			return nil, err
		}
		st := &searchState{target: target}
		for _, name := range searchKernels {
			k, err := kernels.Get(name)
			if err != nil {
				return nil, err
			}
			st.order = append(st.order, searchKernel{name: name, src: k.Src})
		}
		rand.New(rand.NewSource(b.opt.seed)).Shuffle(len(st.order), func(i, j int) {
			st.order[i], st.order[j] = st.order[j], st.order[i]
		})
		if st.tpl, err = perfpredict.ParseMachineTemplate([]byte(searchTemplate)); err != nil {
			return nil, err
		}
		if st.cells, err = st.tpl.Size(); err != nil {
			return nil, err
		}
		for _, k := range kernels.Figure7Set() {
			st.explore = append(st.explore, perfpredict.ExploreKernel{Name: k.Name, Source: k.Src})
		}
		// The expanded cells are the machines sampled cells are checked on.
		st.expanded, err = st.tpl.Expand()
		return st, err
	})
	if err != nil {
		return err
	}
	target, order, tpl, explore, cells, expanded := st.target, st.order, st.tpl, st.explore, st.cells, st.expanded
	var srcs, names []string
	bytes := 0
	for _, k := range order {
		srcs = append(srcs, k.src)
		names = append(names, k.name)
		bytes += len(k.src)
	}
	for _, k := range explore {
		srcs = append(srcs, k.Source)
		bytes += len(k.Source)
	}
	b.inputs["bytes"] = bytes
	if err := b.addInputShape(srcs); err != nil {
		return err
	}
	b.inputs["optimize_order"] = names
	b.inputs["explore_cells"] = cells
	b.inputs["explore_kernels"] = len(explore)
	b.inputs["repeat_share"] = 0.0

	sampleRng := rand.New(rand.NewSource(b.opt.seed ^ 0xce11))
	var coldJSON []byte
	var results []perfpredict.OptimizeResult
	// Per traced rep: nodes, nest hits, nests repriced, tetris calls,
	// optimize ms, segment-cache hits, segment-cache misses.
	var counters [][7]float64
	err = b.measure(func(r *rep) error {
		results = results[:0]
		var ms []float64
		var c [7]float64
		optT0 := time.Now()
		for _, k := range order {
			seg, nest := perfpredict.NewSegmentCache(), perfpredict.NewNestCache()
			end := r.span(b, spanOptimize, k.name)
			t0 := time.Now()
			res, err := perfpredict.OptimizeCtx(context.Background(), k.src, target, searchNominal,
				perfpredict.OptimizeOptions{Workers: 1, SegCache: seg, NestCache: nest})
			d := float64(time.Since(t0)) / 1e6
			end()
			ms = append(ms, d)
			if !r.traced {
				b.addTimed("optimize_"+k.name+"_ms", "ms", d, t0)
			}
			c[0] += float64(res.Explored)
			c[1] += float64(res.NestCacheHits)
			c[2] += float64(res.NestsRepriced)
			c[3] += float64(nest.TetrisCalls())
			c[4] += d
			c[5] += float64(res.SegCacheHits)
			c[6] += float64(res.SegCacheMisses)
			b.add("segcache.optimize_hit_share", "fraction", float64(res.SegCacheHits)/float64(res.SegCacheHits+res.SegCacheMisses))
			ok, why := optimizeOK(res, err, target)
			b.verify(ok, "optimize %s: %s", k.name, why)
			results = append(results, res)
		}
		if !r.traced {
			b.addTimed("optimize_geo_ms", "ms", geomean(ms), optT0)
			b.addTimed("optimize_max_ms", "ms", maxOf(ms), optT0)
		} else {
			counters = append(counters, c)
		}

		seg := perfpredict.NewSegmentCache()
		for _, warm := range []bool{false, true} {
			b.checkpoint()
			label := "cold"
			if warm {
				label = "warm"
			}
			end := r.span(b, spanExplore, label)
			t0 := time.Now()
			res, err := perfpredict.ExploreCtx(context.Background(), tpl, explore, perfpredict.ExploreOptions{Workers: 1, SegCache: seg})
			d := time.Since(t0).Seconds()
			end()
			if err != nil {
				b.verify(false, "explore %s: %v", label, err)
				continue
			}
			if !r.traced {
				b.addTimed("explore_"+label+"_cells_per_s", "1/s", float64(cells)/d, t0)
			}
			b.add("explore.front", "count", float64(len(res.Front)))
			data, err := json.Marshal(res)
			if err != nil {
				return err
			}
			if coldJSON == nil {
				coldJSON = data
			}
			ok, why := exploreOK(res, data, coldJSON, cells, expanded, explore, sampleRng)
			b.verify(ok, "explore %s: %s", label, why)
		}
		return nil
	}, func(r *rep) error {
		n := 0
		for i, k := range order {
			for _, src := range []string{k.src, results[i].Source} {
				m, err := replayDeps(b, k.name, src)
				if err != nil {
					return err
				}
				n += m
			}
		}
		b.add("deps.dependences_per_rep", "count", float64(n))
		return nil
	})
	if err != nil {
		return err
	}

	b.inputs["segcache_optimize_hit_share"] = b.med("segcache.optimize_hit_share")
	b.setE2E("ops_per_s", "explore_cold_cells_per_s")
	b.setE2E("warm_per_s", "explore_warm_cells_per_s")
	b.setE2E("p50_ms", "optimize_geo_ms")
	b.setE2E("tail_ms", "optimize_max_ms")
	if !b.opt.trace {
		for _, k := range searchKernels {
			b.extra["optimize_"+k+"_ms"] = metricValue{b.norm("optimize_" + k + "_ms"), "ms"}
		}
	}
	if b.opt.trace {
		b.layerPerRep("deps.analyze_s", func(s *span) bool { return s.replay && s.name == spanDeps })
		b.layer["deps.dependences"] = b.med("deps.dependences_per_rep")
		col := func(i int) float64 {
			var v []float64
			for _, c := range counters {
				v = append(v, c[i])
			}
			return median(v)
		}
		b.layer["xform.nodes"] = col(0)
		b.layer["xform.ms_per_node"] = col(4) / col(0)
		for _, k := range searchKernels {
			b.layer["xform."+k+"_ms"] = median(b.tr.durations(func(s *span) bool { return s.name == spanOptimize && s.label == k }))
		}
		b.layer["nestcache.hits"] = col(1)
		b.layer["nestcache.repriced"] = col(2)
		b.layer["nestcache.hit_ratio"] = col(1) / (col(1) + col(2))
		b.layer["nestcache.tetris_calls"] = col(3)
		b.layer["segcache.hits"] = col(5)
		b.layer["segcache.misses"] = col(6)
		b.layer["segcache.hit_ratio"] = col(5) / (col(5) + col(6))
		b.layer["explore.cells"] = float64(cells)
		b.layer["explore.front"] = b.med("explore.front")
		b.layer["explore.ms_per_cell"] = median(b.tr.durations(func(s *span) bool { return s.name == spanExplore && s.label == "cold" })) / float64(cells)
	}
	return nil
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// optimizeOK checks a search result against plain prediction: the
// returned source, priced by Predict and evaluated at the nominal
// point, must cost exactly what the search reported.
func optimizeOK(res perfpredict.OptimizeResult, err error, m *machine.Machine) (bool, string) {
	if err != nil {
		return false, err.Error()
	}
	p, err := perfpredict.Predict(res.Source, m)
	if err != nil {
		return false, "re-predicting the result: " + err.Error()
	}
	v, err := p.EvalAt(nominalPoint(p, searchNominal))
	if err != nil {
		return false, err.Error()
	}
	if !closeTo(v, res.PredictedAfter) {
		return false, fmt.Sprintf("PredictedAfter %v, Predict of the result %v", res.PredictedAfter, v)
	}
	if res.PredictedAfter > res.PredictedBefore {
		return false, fmt.Sprintf("result %v costs more than the input %v", res.PredictedAfter, res.PredictedBefore)
	}
	return true, ""
}

// nominalPoint completes nominal with the nominal value for every other
// non-probability unknown of p.
func nominalPoint(p *perfpredict.Prediction, nominal map[string]float64) map[string]float64 {
	point := map[string]float64{}
	for _, u := range p.Unknowns {
		if u.Kind != "probability" {
			point[u.Name] = nominalUnknown
		}
	}
	for k, v := range nominal {
		point[k] = v
	}
	return point
}

func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// exploreOK checks a sweep: the lattice is fully accounted for, the
// result is identical to the first cold sweep of the run, and sampled
// cells cost what Predict says on the expanded machine.
func exploreOK(res *perfpredict.ExploreResult, data, want []byte, cells int, expanded []machine.Expanded,
	ks []perfpredict.ExploreKernel, rng *rand.Rand) (bool, string) {
	if res.Cells != cells || len(res.Front)+len(res.Pruned) != cells {
		return false, fmt.Sprintf("%d cells, %d front + %d pruned; want %d", res.Cells, len(res.Front), len(res.Pruned), cells)
	}
	if string(data) != string(want) {
		return false, "sweep differs from the run's first sweep"
	}
	costs := map[int][]float64{}
	for _, c := range res.Front {
		costs[c.Index] = c.Costs
	}
	for _, c := range res.Pruned {
		costs[c.Index] = c.Costs
	}
	for s := 0; s < exploreSamples; s++ {
		i := rng.Intn(cells)
		m, err := expanded[i].Spec.Machine()
		if err != nil {
			return false, err.Error()
		}
		for k, kern := range ks {
			p, err := perfpredict.Predict(kern.Source, m)
			if err != nil {
				return false, err.Error()
			}
			v, err := p.EvalAt(nominalPoint(p, nil))
			if err != nil {
				return false, err.Error()
			}
			if got := costs[i]; len(got) != len(ks) || !closeTo(got[k], v) {
				return false, fmt.Sprintf("cell %d kernel %s: sweep %v, Predict %v", i, kern.Name, got, v)
			}
		}
	}
	return true, ""
}

// replayDeps runs dependence analysis over every two-deep loop nest of
// src (an outer loop and a loop directly in its body), one replay span
// per call, and returns the dependences found.
func replayDeps(b *bench, label, src string) (int, error) {
	prog, err := source.Parse(src)
	if err != nil {
		return 0, err
	}
	tbl, err := sem.Analyze(prog)
	if err != nil {
		return 0, err
	}
	n := 0
	var walk func(list []source.Stmt)
	walk = func(list []source.Stmt) {
		for _, s := range list {
			outer, ok := s.(*source.DoLoop)
			if !ok {
				continue
			}
			for _, t := range outer.Body {
				if inner, ok := t.(*source.DoLoop); ok {
					id := b.tr.open(spanDeps, label, -1, true)
					n += len(deps.Analyze(tbl, []*source.DoLoop{outer, inner}, inner.Body))
					b.tr.close(id)
				}
			}
			walk(outer.Body)
		}
	}
	walk(prog.Body)
	return n, nil
}
