package perfpredict

import (
	"testing"

	"perfpredict/internal/kernels"
	"perfpredict/internal/machine"
	"perfpredict/internal/source"
	"perfpredict/internal/xform"
)

func countLoops(list []source.Stmt) int {
	n := 0
	for _, s := range list {
		switch x := s.(type) {
		case *source.DoLoop:
			n += 1 + countLoops(x.Body)
		case *source.IfStmt:
			n += countLoops(x.Then) + countLoops(x.Else)
		}
	}
	return n
}

// TestOptimizeRepricingGuard is the regression guard for incremental
// re-pricing: on a Figure 7 program, Optimize must perform no more
// nest re-pricings than (loop-statement-count + 1) per expanded state,
// where loops are counted on the optimized variant (the largest shape
// the search explores — unrolling adds remainder loops). For f2 the
// incremental search needs ~2.3 re-pricings per state against a bound
// of 3, while a cache regression to full re-pricing (~4.7/state)
// trips it.
func TestOptimizeRepricingGuard(t *testing.T) {
	k, err := kernels.Get("f2")
	if err != nil {
		t.Fatal(err)
	}
	if !k.Figure7 {
		t.Fatalf("f2 is no longer in the Figure 7 set")
	}
	res, err := Optimize(k.Src, POWER1(), nil)
	if err != nil {
		t.Fatal(err)
	}
	best, err := source.Parse(res.Source)
	if err != nil {
		t.Fatal(err)
	}
	loops := countLoops(best.Body)
	bound := res.Explored * (loops + 1)
	if res.NestsRepriced > bound {
		t.Errorf("Optimize re-priced %d nests over %d expanded states; bound is %d (= states × (loops %d + 1))",
			res.NestsRepriced, res.Explored, bound, loops)
	}
	if res.NestCacheHits == 0 {
		t.Error("Optimize never hit the nest cache")
	}
	if res.SegCacheHits == 0 {
		t.Error("Optimize never hit the segment cache")
	}
}

// TestOptimizeTetrisReduction pins the headline acceptance number: on
// the figure programs, the nest cache must cut tetris invocations at
// least 3× versus cache-less search, with identical outcomes.
func TestOptimizeTetrisReduction(t *testing.T) {
	for _, kn := range []string{"f2", "f6", "matmul"} {
		k, err := kernels.Get(kn)
		if err != nil {
			t.Fatal(err)
		}
		prog, _, err := k.Parse()
		if err != nil {
			t.Fatal(err)
		}
		run := func(disable bool) xform.SearchResult {
			res, err := xform.Search(prog, xform.SearchOptions{
				Machine:          machine.NewPOWER1(),
				DisableNestCache: disable,
			})
			if err != nil {
				t.Fatalf("%s disable=%v: %v", kn, disable, err)
			}
			return res
		}
		full := run(true)
		inc := run(false)
		if inc.BestCost != full.BestCost || source.PrintProgram(inc.Best) != source.PrintProgram(full.Best) {
			t.Errorf("%s: incremental search changed the outcome", kn)
		}
		if full.TetrisCalls < 3*inc.TetrisCalls {
			t.Errorf("%s: tetris reduction below 3x: %d full vs %d incremental",
				kn, full.TetrisCalls, inc.TetrisCalls)
		}
	}
}

// TestSearchTetrisCallCounts pins the exact number of tetris
// invocations a search performs on the figure programs, with and
// without the nest cache. The counts are deterministic (one worker),
// so any change to what the pricing memos cover shows up here as a
// changed number, not as a slower benchmark.
func TestSearchTetrisCallCounts(t *testing.T) {
	want := map[string][2]int{ // {counting mode, nest cache}
		"f2":     {926, 112},
		"f6":     {924, 109},
		"matmul": {1882, 205},
	}
	for _, kn := range []string{"f2", "f6", "matmul"} {
		k, err := kernels.Get(kn)
		if err != nil {
			t.Fatal(err)
		}
		prog, _, err := k.Parse()
		if err != nil {
			t.Fatal(err)
		}
		for i, disable := range []bool{true, false} {
			res, err := xform.Search(prog, xform.SearchOptions{
				Machine:          machine.NewPOWER1(),
				DisableNestCache: disable,
				Workers:          1,
			})
			if err != nil {
				t.Fatalf("%s disable=%v: %v", kn, disable, err)
			}
			if res.TetrisCalls != want[kn][i] {
				t.Errorf("%s disable=%v: %d tetris calls, want %d", kn, disable, res.TetrisCalls, want[kn][i])
			}
		}
	}
}
