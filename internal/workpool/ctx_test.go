package workpool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestRunCtxCompletesAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		if err := RunCtx(context.Background(), 100, workers, func(i int) { ran.Add(1) }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ran.Load() != 100 {
			t.Errorf("workers=%d: ran %d of 100", workers, ran.Load())
		}
	}
}

func TestRunCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := RunCtx(ctx, 100, workers, func(i int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: ran %d indices after pre-cancel", workers, ran.Load())
		}
	}
}

func TestRunCtxStopsClaimingAfterCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran, late atomic.Int64
		var cancelled atomic.Bool
		const cancelAt = 10
		err := RunCtx(ctx, 10000, workers, func(i int) {
			if cancelled.Load() {
				late.Add(1)
			}
			if ran.Add(1) == cancelAt {
				cancel()
				cancelled.Store(true)
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		// Once cancel() has returned, a worker may still start the one
		// index it claimed before seeing the cancellation, but no more.
		// Calls other workers begin while cancel() is still running are
		// not counted: they claimed their index before the context was
		// done.
		if got := late.Load(); got > int64(workers) {
			t.Errorf("workers=%d: %d calls started after cancel returned, want <= %d", workers, got, workers)
		}
	}
}
