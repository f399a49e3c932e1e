package perfpredict

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// corpusCase is one corpus program on one target with its golden
// answer.
type corpusCase struct {
	prog, target string
	src          string
	m            *Target
	golden       string
}

// corpusCases loads a golden table from testdata/corpus (program →
// target → golden string) with every program's source and target, in
// a fixed order: programs sorted, targets sorted within each.
func corpusCases(t *testing.T, goldenFile string) []corpusCase {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "corpus", goldenFile))
	if err != nil {
		t.Fatalf("reading %s (regenerate with fuzzcheck -emit-corpus): %v", goldenFile, err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) == 0 {
		t.Fatalf("empty golden table %s", goldenFile)
	}

	targets := map[string]*Target{}
	target := func(name string) *Target {
		if m, ok := targets[name]; ok {
			return m
		}
		ref := name
		if _, err := os.Stat(filepath.Join("testdata", "corpus", "specs", name+".json")); err == nil {
			ref = filepath.Join("testdata", "corpus", "specs", name+".json")
		}
		m, err := LoadTarget(ref)
		if err != nil {
			t.Fatalf("target %s: %v", name, err)
		}
		targets[name] = m
		return m
	}

	progs := make([]string, 0, len(golden))
	for p := range golden {
		progs = append(progs, p)
	}
	sort.Strings(progs)
	var cases []corpusCase
	for _, prog := range progs {
		src, err := os.ReadFile(filepath.Join("testdata", "corpus", "programs", prog))
		if err != nil {
			t.Fatalf("corpus program %s missing: %v", prog, err)
		}
		names := make([]string, 0, len(golden[prog]))
		for n := range golden[prog] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			cases = append(cases, corpusCase{prog: prog, target: name, src: string(src), m: target(name), golden: golden[prog][name]})
		}
	}
	return cases
}

// The generated corpus under testdata/corpus pins the symbolic cost
// of 50 generated programs on every builtin target and 5 generated
// machine descriptions. A mismatch means a pricing change: if
// intentional, regenerate with
//
//	go run ./cmd/fuzzcheck -emit-corpus testdata/corpus
func TestCorpusGoldenPredictions(t *testing.T) {
	for _, c := range corpusCases(t, "golden.json") {
		p, err := Predict(c.src, c.m)
		if err != nil {
			t.Errorf("%s on %s: %v", c.prog, c.target, err)
			continue
		}
		if got := p.Cost.String(); got != c.golden {
			t.Errorf("%s on %s: cost %q, golden %q", c.prog, c.target, got, c.golden)
		}
	}
}

// TestCorpusSharedCacheWarmPass prices the whole corpus twice through
// one shared segment cache. Both passes must give the golden costs,
// and the second must be answered entirely from the cache: every
// lookup a hit, none a miss, so no block is lowered or placed again.
func TestCorpusSharedCacheWarmPass(t *testing.T) {
	cases := corpusCases(t, "golden.json")
	cache := NewSegmentCache()
	pass := func(name string) {
		for _, c := range cases {
			p, err := PredictCtx(context.Background(), c.src, c.m, PredictOptions{Cache: cache})
			if err != nil {
				t.Fatalf("%s pass, %s on %s: %v", name, c.prog, c.target, err)
			}
			if got := p.Cost.String(); got != c.golden {
				t.Errorf("%s pass, %s on %s: cost %q, golden %q", name, c.prog, c.target, got, c.golden)
			}
		}
	}
	pass("cold")
	hits0, misses0 := cache.Stats()
	pass("warm")
	hits1, misses1 := cache.Stats()
	if misses1 != misses0 {
		t.Errorf("warm pass missed %d times; want 0", misses1-misses0)
	}
	if hits1 == hits0 {
		t.Error("warm pass made no cache lookups")
	}
}

// TestCorpusGoldenExplain pins the explain digest — bottleneck unit,
// dominant-nest critical-path span, top-3 utilizations — of every
// corpus program on every target. A mismatch means the diagnosis
// changed: if intentional, regenerate with
//
//	go run ./cmd/fuzzcheck -emit-corpus testdata/corpus
func TestCorpusGoldenExplain(t *testing.T) {
	for _, c := range corpusCases(t, "golden_explain.json") {
		rep, err := ExplainCtx(context.Background(), c.src, c.m, ExplainOptions{SkipWhatIf: true})
		if err != nil {
			t.Errorf("%s on %s: %v", c.prog, c.target, err)
			continue
		}
		if got := rep.Summary(); got != c.golden {
			t.Errorf("%s on %s: digest %q, golden %q", c.prog, c.target, got, c.golden)
		}
	}
}
