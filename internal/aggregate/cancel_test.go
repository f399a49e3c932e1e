package aggregate

import (
	"context"
	"errors"
	"testing"

	"perfpredict/internal/machine"
	"perfpredict/internal/progen"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// workCtx is a context that reports Canceled once its estimator has
// counted k units of work: cancellation pinned to a statement count,
// not to a wall-clock time.
type workCtx struct {
	context.Context
	e *Estimator
	k int
}

func (c workCtx) Err() error {
	if c.e.work >= c.k {
		return context.Canceled
	}
	return nil
}

func TestProgramCtxStopsWithinOneStride(t *testing.T) {
	p, err := source.Parse(progen.GenGuardedLoops(progen.NewRand(1), 200))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	e := New(tbl, machine.NewPOWER1(), DefaultOptions())
	want, err := e.Program(p)
	if err != nil {
		t.Fatal(err)
	}
	total := e.work
	if total < 600 { // a loop, an IF and an assignment per loop
		t.Fatalf("uncancelled pricing counted %d units, want ≥ 600", total)
	}
	// The last k leaves one full stride to run, so a poll must see it.
	for _, k := range []int{1, ctxCheckStride - 1, ctxCheckStride, 100, 301, total - ctxCheckStride} {
		_, err := e.ProgramCtx(workCtx{context.Background(), e, k}, p)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: err = %v, want context.Canceled", k, err)
		}
		if e.work < k || e.work >= k+ctxCheckStride {
			t.Errorf("k=%d: stopped after %d units, want within [k, k+%d)", k, e.work, ctxCheckStride)
		}
	}
	// A live context changes nothing.
	e = New(tbl, machine.NewPOWER1(), DefaultOptions())
	got, err := e.ProgramCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost.String() != want.Cost.String() || e.work != total {
		t.Errorf("live ctx: cost %v work %d, want %v work %d", got.Cost, e.work, want.Cost, total)
	}
}
