package perfpredict

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"perfpredict/internal/progen"
)

// allocBytes returns the bytes Predict allocates pricing src cold.
func allocBytes(t *testing.T, src string) uint64 {
	t.Helper()
	target, err := LoadTarget("POWER1")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Predict(src, target); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Pricing work is linear in program length: 4× the loops, or 4× the
// statements of a straight body, may allocate at most 5× the bytes.
// Allocation is a deterministic count, unlike time, and every
// quadratic path pricing has had (running-sum clones, def tables sized
// by absolute register number, whole-table CSE scans) allocated or
// touched memory in proportion to the program priced so far.
func TestPredictAllocLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("prices 3250 loops and statements")
	}
	for _, c := range []struct {
		name       string
		gen        func(n int) string
		small, big int
	}{
		{"guarded loops", func(n int) string { return progen.GenGuardedLoops(progen.NewRand(1), n) }, 250, 1000},
		{"straight body", func(n int) string { return progen.GenLongStraight(progen.NewRand(1), n) }, 500, 2000},
	} {
		small, big := allocBytes(t, c.gen(c.small)), allocBytes(t, c.gen(c.big))
		t.Logf("%s: %d → %d bytes (%.2f×)", c.name, small, big, float64(big)/float64(small))
		if big > 5*small {
			t.Errorf("%s: %d bytes for %d, %d for %d: %.2f× for 4× the input, want ≤ 5×",
				c.name, small, c.small, big, c.big, float64(big)/float64(small))
		}
	}
}

// A deadline that expires while a long program is priced stops the
// pricing: PredictCtx returns the deadline error instead of a result.
func TestPredictCtxHonorsDeadline(t *testing.T) {
	target, err := LoadTarget("POWER1")
	if err != nil {
		t.Fatal(err)
	}
	src := progen.GenGuardedLoops(progen.NewRand(1), 1000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	p, err := PredictCtx(ctx, src, target, PredictOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PredictCtx under a 1ms deadline: prediction %v, err %v; want context.DeadlineExceeded", p != nil, err)
	}
}
