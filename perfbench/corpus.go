package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"perfpredict"
	"perfpredict/internal/aggregate"
	"perfpredict/internal/machine"
)

const corpusDir = "testdata/corpus"

// corpusJob is one (program, target) prediction with its goldens.
type corpusJob struct {
	prog, target  string
	src           string
	m             *machine.Machine
	golden        string
	goldenExplain string
}

// loadCorpus reads the 50 corpus programs, their 8 targets and both
// golden tables, and orders the 400 jobs by seed.
func loadCorpus(seed int64) ([]corpusJob, error) {
	var golden, goldenExplain map[string]map[string]string
	for path, dst := range map[string]*map[string]map[string]string{
		"golden.json": &golden, "golden_explain.json": &goldenExplain,
	} {
		data, err := os.ReadFile(filepath.Join(corpusDir, path))
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, dst); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	targets := map[string]*machine.Machine{}
	var jobs []corpusJob
	progs := make([]string, 0, len(golden))
	for p := range golden {
		progs = append(progs, p)
	}
	sort.Strings(progs)
	for _, p := range progs {
		src, err := os.ReadFile(filepath.Join(corpusDir, "programs", p))
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, len(golden[p]))
		for n := range golden[p] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m, ok := targets[n]
			if !ok {
				ref := n
				if spec := filepath.Join(corpusDir, "specs", n+".json"); fileExists(spec) {
					ref = spec
				}
				if m, err = perfpredict.LoadTarget(ref); err != nil {
					return nil, err
				}
				targets[n] = m
			}
			jobs = append(jobs, corpusJob{prog: p, target: n, src: string(src), m: m,
				golden: golden[p][n], goldenExplain: goldenExplain[p][n]})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// runCorpus: every corpus program on every golden target, serially in
// seeded order — a cold pass on a fresh segment cache, a warm pass on
// the same cache, then an explain pass. Short loop nests, so the
// aggregate walk, Tetris, estimator construction and segment-cache
// keying dominate; lowering and symexpr stay cheap.
func runCorpus(b *bench) error {
	jobs, err := setup(b, func() ([]corpusJob, error) { return loadCorpus(b.opt.seed) })
	if err != nil {
		return err
	}
	bytes, seen, repeats := 0, map[string]bool{}, 0
	for _, j := range jobs {
		bytes += len(j.src)
		if seen[j.prog] {
			repeats++
		}
		seen[j.prog] = true
	}
	b.inputs["predictions_per_pass"] = len(jobs)
	b.inputs["programs"] = len(seen)
	b.inputs["bytes_per_pass"] = bytes
	b.inputs["repeat_share"] = float64(repeats) / float64(len(jobs))
	srcs := make([]string, len(jobs))
	for i, j := range jobs {
		srcs[i] = j.src
	}
	if err := b.addInputShape(srcs); err != nil {
		return err
	}

	n := float64(len(jobs))
	var counts []replayCounts
	var coldPriced []priced
	var segStats [][2]float64
	err = b.measure(func(r *rep) error {
		coldPriced = coldPriced[:0]
		seg := aggregate.NewSegCache()
		var lat []float64
		pass := func(name string, cold bool) (t0 time.Time) {
			t0 = time.Now()
			for _, j := range jobs {
				s := time.Now()
				p, err := b.predict(r, j.prog, j.src, j.m, seg)
				if cold {
					lat = append(lat, float64(time.Since(s))/1e6)
				}
				b.verify(err == nil && p.cost == j.golden, "%s %s on %s: cost %q err %v, golden %q", name, j.prog, j.target, p.cost, err, j.golden)
				if cold && r.traced {
					coldPriced = append(coldPriced, p)
				}
			}
			if !r.traced {
				b.addTimed(name, "1/s", n/time.Since(t0).Seconds(), t0)
			}
			return t0
		}
		t0 := pass("predict_cold_per_s", true)
		if !r.traced {
			b.addEach("cold_predict_ms", "ms", lat, t0)
		}
		hits, misses := seg.Stats()
		b.checkpoint()
		pass("predict_warm_per_s", false)
		hits2, misses2 := seg.Stats()
		b.checkpoint()
		b.add("segcache.cold_hit_share", "fraction", float64(hits)/float64(hits+misses))
		b.add("segcache.warm_hit_share", "fraction", float64(hits2-hits)/float64(hits2-hits+misses2-misses))
		if r.traced {
			segStats = append(segStats, [2]float64{float64(hits2), float64(misses2)})
		}
		t0 = time.Now()
		for _, j := range jobs {
			end := r.span(b, spanExplain, j.prog)
			rep, err := perfpredict.ExplainCtx(context.Background(), j.src, j.m, perfpredict.ExplainOptions{SkipWhatIf: true})
			end()
			ok := err == nil && rep.Summary() == j.goldenExplain
			got := ""
			if err == nil {
				got = rep.Summary()
			}
			b.verify(ok, "explain %s on %s: digest %q err %v, golden %q", j.prog, j.target, got, err, j.goldenExplain)
		}
		if !r.traced {
			b.addTimed("explain_per_s", "1/s", n/time.Since(t0).Seconds(), t0)
		}
		return nil
	}, func(r *rep) error {
		sr := newSegmentReplayer(b, true)
		for i, j := range jobs {
			if err := sr.program(j.prog, coldPriced[i], j.m); err != nil {
				return err
			}
		}
		counts = append(counts, sr.counts)
		terms := 0
		for _, p := range coldPriced {
			terms += p.terms
		}
		b.add("symexpr.terms_per_rep", "count", float64(terms))
		return nil
	})
	if err != nil {
		return err
	}

	b.setE2E("ops_per_s", "predict_cold_per_s")
	b.setE2E("warm_per_s", "predict_warm_per_s")
	b.setE2E("p50_ms", "cold_predict_ms")
	b.setTail("tail_ms", "cold_predict_ms")
	b.extra["explain_per_s"] = metricValue{b.norm("explain_per_s"), "1/s"}
	b.inputs["segcache_cold_hit_share"] = b.med("segcache.cold_hit_share")
	b.inputs["segcache_warm_hit_share"] = b.med("segcache.warm_hit_share")
	if b.opt.trace {
		b.setFrontLayers(2 * float64(bytes))
		b.setReplayLayers(counts)
		var hits, misses []float64
		for _, s := range segStats {
			hits, misses = append(hits, s[0]), append(misses, s[1])
		}
		b.layer["segcache.hits"] = median(hits)
		b.layer["segcache.misses"] = median(misses)
		b.layer["segcache.hit_ratio"] = median(hits) / (median(hits) + median(misses))
		b.layer["symexpr.terms"] = b.med("symexpr.terms_per_rep")
		// Explain over predict on the same 400 inputs, from the plain reps.
		b.layer["explain.overhead_ratio"] = b.med("predict_cold_per_s") / b.med("explain_per_s")
	}
	return nil
}
