package tetris

// Estimator-level differential suite: the bitmap/SoA Estimate must be
// byte-identical — cost, absolute extent, per-instruction issue slots,
// and the full Figure 8 shape — to the retired run-length estimator
// preserved in runlength_est_test.go, across random blocks, random
// machine specs, and the whole Options matrix.

import (
	"math/rand"
	"reflect"
	"testing"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
	"perfpredict/internal/progen"
)

func diffOptions() []Options {
	return []Options{
		{},
		{MayAlias: true},
		{IgnoreDeps: true},
		{FocusSpan: 2},
		{FocusSpan: 7, MayAlias: true},
		{DispatchWidth: 1},
		{DispatchWidth: 2, FocusSpan: 3},
	}
}

func assertSameEstimate(t *testing.T, m *machine.Machine, b *ir.Block, opt Options, tag string) {
	t.Helper()
	got, errNew := Estimate(m, b, opt)
	want, errOld := rlEstimate(m, b, opt)
	if (errNew == nil) != (errOld == nil) {
		t.Fatalf("%s: error mismatch: bitmap=%v runlength=%v", tag, errNew, errOld)
	}
	if errNew != nil {
		if errNew.Error() != errOld.Error() {
			t.Fatalf("%s: error text mismatch:\nbitmap    = %v\nrunlength = %v", tag, errNew, errOld)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (opt %+v):\nbitmap    = %+v\nrunlength = %+v\nblock:\n%s", tag, opt, got, want, b)
	}
}

func TestEstimateMatchesRunLengthBuiltins(t *testing.T) {
	machines := []*machine.Machine{
		machine.NewPOWER1(), machine.NewSuperScalar2(), machine.NewScalar1(),
	}
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		blk := progen.GenBlock(r, progen.BlockConfig{MinOps: 1, MaxOps: 40, AllowControl: true})
		m := machines[seed%int64(len(machines))]
		for _, opt := range diffOptions() {
			assertSameEstimate(t, m, blk, opt, m.Name)
		}
	}
}

func TestEstimateMatchesRunLengthRandomSpecs(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		m, err := progen.GenSpec(r, progen.SpecConfig{}).Machine()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		blk := progen.GenBlock(r, progen.BlockConfig{MinOps: 1, MaxOps: 30})
		for _, opt := range diffOptions() {
			assertSameEstimate(t, m, blk, opt, m.Name)
		}
	}
}

// Large blocks force repeated bitmap growth well past the initial
// 64-slot words and stress the focus-span and dispatch-width retry
// paths at scale.
func TestEstimateMatchesRunLengthLargeBlocks(t *testing.T) {
	m := machine.NewPOWER1()
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(2000 + seed))
		blk := progen.GenBlock(r, progen.BlockConfig{MinOps: 300, MaxOps: 600})
		for _, opt := range []Options{{}, {FocusSpan: 16}, {DispatchWidth: 1}} {
			assertSameEstimate(t, m, blk, opt, "large")
		}
	}
	// A serial divide chain drives single-pipe occupancy thousands of
	// slots deep: the worst case for run walking, the common case for
	// word scans.
	blk := &ir.Block{}
	for i := 0; i < 200; i++ {
		src := ir.Reg(1000 + i)
		if i > 0 {
			src = ir.Reg(i - 1)
		}
		blk.Append(ir.Instr{Op: ir.OpFDiv, Dst: ir.Reg(i), Srcs: []ir.Reg{src, 999}})
	}
	assertSameEstimate(t, m, blk, Options{}, "div-chain")
}

// The error path must stay identical too: an op with no table mapping
// reports the same error from both estimators.
func TestEstimateMatchesRunLengthUnknownOp(t *testing.T) {
	stripped := machine.NewPOWER1()
	delete(stripped.Table, ir.OpFSqrt)
	blk := &ir.Block{}
	blk.Append(ir.Instr{Op: ir.OpFSqrt, Dst: 0, Srcs: []ir.Reg{100}})
	assertSameEstimate(t, stripped, blk, Options{}, "unknown-op")
}
