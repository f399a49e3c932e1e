package perfpredict

import (
	"context"
	"sync"
	"testing"

	"perfpredict/internal/aggregate"
	"perfpredict/internal/kernels"
)

// TestPredictConcurrent checks the concurrency contract of the
// prediction pipeline: many goroutines predicting through one shared
// segment cache produce results byte-identical to serial runs. Run
// under `go test -race` (scripts/ci.sh does) this also exercises the
// sharded cache, the tetris/pipesim scratch pools and the symexpr
// intern table for data races.
func TestPredictConcurrent(t *testing.T) {
	target := POWER1()
	ks := kernels.All()
	srcs := make([]string, len(ks))
	for i, k := range ks {
		srcs[i] = k.Src
	}

	// Serial ground truth, private caches.
	wantCost := make([]string, len(srcs))
	wantOne := make([]string, len(srcs))
	for i, src := range srcs {
		pred, err := Predict(src, target)
		if err != nil {
			t.Fatalf("serial predict %s: %v", ks[i].Name, err)
		}
		wantCost[i] = pred.Cost.String()
		wantOne[i] = pred.OneTime.String()
	}

	check := func(t *testing.T, i int, pred *Prediction, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", ks[i].Name, err)
			return
		}
		if got := pred.Cost.String(); got != wantCost[i] {
			t.Errorf("%s: concurrent cost %q != serial %q", ks[i].Name, got, wantCost[i])
		}
		if got := pred.OneTime.String(); got != wantOne[i] {
			t.Errorf("%s: concurrent one-time %q != serial %q", ks[i].Name, got, wantOne[i])
		}
	}

	t.Run("predict-shared-cache", func(t *testing.T) {
		cache := NewSegmentCache()
		const goroutines = 8
		var wg sync.WaitGroup
		results := make([][]*Prediction, goroutines)
		errors := make([][]error, goroutines)
		for g := 0; g < goroutines; g++ {
			results[g] = make([]*Prediction, len(srcs))
			errors[g] = make([]error, len(srcs))
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i, src := range srcs {
					results[g][i], errors[g][i] = predictWithCache(context.Background(), src, target, aggregate.DefaultOptions(), cache)
				}
			}(g)
		}
		wg.Wait()
		for g := 0; g < goroutines; g++ {
			for i := range srcs {
				check(t, i, results[g][i], errors[g][i])
			}
		}
		if hits, misses := cache.Stats(); hits == 0 || misses == 0 {
			t.Errorf("shared cache saw hits=%d misses=%d; want both nonzero", hits, misses)
		}
	})

	t.Run("predict-batch", func(t *testing.T) {
		cache := NewSegmentCache()
		for _, workers := range []int{1, 8} {
			preds, errs := PredictBatch(srcs, target, BatchOptions{Workers: workers, Cache: cache})
			for i := range srcs {
				check(t, i, preds[i], errs[i])
			}
		}
	})
}
