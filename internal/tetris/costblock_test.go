package tetris

import (
	"math/rand"
	"testing"
	"testing/quick"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
)

func TestSlotListBasics(t *testing.T) {
	s := newSlotList(16)
	if !s.free(0, 16) {
		t.Fatal("new list not free")
	}
	s.occupy(3, 4)
	if s.free(3, 1) || s.free(2, 2) || s.free(6, 2) {
		t.Error("occupied slots reported free")
	}
	if !s.free(0, 3) || !s.free(7, 9) {
		t.Error("free slots reported occupied")
	}
	if got := s.nextFit(0, 3); got != 0 {
		t.Errorf("nextFit(0,3) = %d", got)
	}
	if got := s.nextFit(0, 4); got != 7 {
		t.Errorf("nextFit(0,4) = %d, want 7", got)
	}
	if got := s.nextFit(4, 1); got != 7 {
		t.Errorf("nextFit(4,1) = %d, want 7", got)
	}
	f, l := s.extent()
	if f != 3 || l != 6 {
		t.Errorf("extent = (%d, %d)", f, l)
	}
	if c := s.filledCount(16); c != 4 {
		t.Errorf("filledCount = %d", c)
	}
	if err := s.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSlotListGrows(t *testing.T) {
	s := newSlotList(4)
	s.occupy(100, 10)
	if !s.free(0, 100) {
		t.Error("low slots should stay free after growth")
	}
	if s.free(100, 1) {
		t.Error("grown slot not occupied")
	}
	if err := s.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSlotListMerges(t *testing.T) {
	s := newSlotList(32)
	s.occupy(0, 4)
	s.occupy(4, 4)
	s.occupy(8, 4)
	if len(s.runs) != 2 { // one filled run [0,12) + trailing empty
		t.Errorf("runs = %+v", s.runs)
	}
	if err := s.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSlotListEncodeFigure4(t *testing.T) {
	// Reproduce the Figure 4 encoding: ±size at run boundaries.
	s := newSlotList(10)
	s.occupy(2, 3) // runs: empty[0,2), filled[2,5), empty[5,10)
	enc := s.Encode(10)
	want := []int{-2, -2, 3, 0, 3, -5, 0, 0, 0, -5}
	for i := range want {
		if enc[i] != want[i] {
			t.Fatalf("Encode = %v, want %v", enc, want)
		}
	}
}

func TestSlotListRender(t *testing.T) {
	s := newSlotList(8)
	s.occupy(1, 2)
	if got := s.render(5); got != ".##.." {
		t.Errorf("render = %q", got)
	}
}

func TestSlotListPanicsOnDoubleOccupy(t *testing.T) {
	s := newSlotList(8)
	s.occupy(0, 4)
	defer func() {
		if recover() == nil {
			t.Error("double occupy did not panic")
		}
	}()
	s.occupy(2, 2)
}

func TestQuickSlotListInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := newSlotList(32)
		occupied := map[int]bool{}
		for i := 0; i < 60; i++ {
			from := r.Intn(200)
			n := 1 + r.Intn(8)
			if s.free(from, n) {
				s.occupy(from, n)
				for j := from; j < from+n; j++ {
					occupied[j] = true
				}
			}
			if err := s.checkInvariants(); err != nil {
				return false
			}
		}
		// Cross-check against the reference set.
		for j := 0; j < 220; j++ {
			if s.free(j, 1) == occupied[j] {
				return false
			}
		}
		// nextFit results must actually be free and minimal.
		for i := 0; i < 10; i++ {
			from, n := r.Intn(200), 1+r.Intn(6)
			at := s.nextFit(from, n)
			if at < from || !s.free(at, n) {
				return false
			}
			for cand := from; cand < at; cand++ {
				if s.free(cand, n) {
					return false // not minimal
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func shapeOf(t *testing.T, instrs ...ir.Instr) CostBlock {
	t.Helper()
	m := machine.NewPOWER1()
	b := &ir.Block{}
	for _, in := range instrs {
		b.Append(in)
	}
	r, err := Estimate(m, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r.Shape
}

func TestConcatOverlapsAcrossUnits(t *testing.T) {
	// Block A: FXU-heavy (loads); block B: FPU-heavy (adds). Their
	// shapes interlock almost fully (Figure 9).
	var loads, adds []ir.Instr
	for i := 0; i < 6; i++ {
		loads = append(loads, ir.Instr{Op: ir.OpFLoad, Dst: ir.Reg(i), Addr: "a(i)#" + itoa(i), Base: "a"})
		adds = append(adds, ir.Instr{Op: ir.OpFAdd, Dst: ir.Reg(10 + i), Srcs: []ir.Reg{ir.Reg(100 + i), ir.Reg(200 + i)}})
	}
	a := shapeOf(t, loads...)
	b := shapeOf(t, adds...)
	combined, saved := Concat(a, b)
	if saved <= 0 {
		t.Errorf("disjoint-unit blocks should overlap: saved = %d", saved)
	}
	if combined.Height >= a.Height+b.Height {
		t.Errorf("combined %d not smaller than %d + %d", combined.Height, a.Height, b.Height)
	}
	if combined.Busy[machine.FXU] != a.Busy[machine.FXU]+b.Busy[machine.FXU] {
		t.Errorf("busy counts not additive")
	}
}

func TestConcatSameUnitNoOverlap(t *testing.T) {
	// Two FPU-saturated blocks cannot overlap in the FPU.
	var adds []ir.Instr
	for i := 0; i < 4; i++ {
		adds = append(adds, ir.Instr{Op: ir.OpFAdd, Dst: ir.Reg(i), Srcs: []ir.Reg{ir.Reg(100 + i), ir.Reg(200 + i)}})
	}
	a := shapeOf(t, adds...)
	combined, saved := Concat(a, a)
	// FPU extents force nearly sequential placement; only the trailing
	// coverable cycle of A can hide B's first issue.
	if saved > 1 {
		t.Errorf("same-unit blocks overlapped too much: saved = %d", saved)
	}
	if combined.Height < 2*a.Height-1 {
		t.Errorf("combined height %d vs 2×%d", combined.Height, a.Height)
	}
}

func TestSelfConcatSteadyState(t *testing.T) {
	var adds []ir.Instr
	for i := 0; i < 4; i++ {
		adds = append(adds, ir.Instr{Op: ir.OpFAdd, Dst: ir.Reg(i), Srcs: []ir.Reg{ir.Reg(100 + i), ir.Reg(200 + i)}})
	}
	cb := shapeOf(t, adds...)
	total, per := SelfConcat(cb, 10)
	if total <= 0 || per <= 0 {
		t.Fatalf("SelfConcat: total=%d per=%v", total, per)
	}
	if per > float64(cb.Height) {
		t.Errorf("per-iteration %v exceeds single-block %d", per, cb.Height)
	}
	if _, p := SelfConcat(cb, 0); p != 0 {
		t.Error("zero iters should be free")
	}
}

func TestReplicateRenamesAndTags(t *testing.T) {
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: "a(i)", Base: "a"})
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 1, Addr: "s", Base: "s"})
	b.Append(ir.Instr{Op: ir.OpFAdd, Dst: 2, Srcs: []ir.Reg{0, 1}})
	b.Append(ir.Instr{Op: ir.OpFStore, Srcs: []ir.Reg{2}, Addr: "s", Base: "s"})
	rep := Replicate(b, 3)
	if len(rep.Instrs) != 12 {
		t.Fatalf("len = %d", len(rep.Instrs))
	}
	// Registers renamed per copy.
	if rep.Instrs[4].Dst == rep.Instrs[0].Dst {
		t.Error("registers not renamed")
	}
	// Indexed address tagged, scalar address untouched.
	if rep.Instrs[4].Addr != "a(i)#1" {
		t.Errorf("copy-1 indexed addr = %q", rep.Instrs[4].Addr)
	}
	if rep.Instrs[5].Addr != "s" {
		t.Errorf("scalar addr = %q", rep.Instrs[5].Addr)
	}
	// The scalar reduction chain serializes iterations: deps exist
	// between copies.
	deps := rep.Deps(false)
	if len(deps[5]) == 0 {
		t.Error("reduction load should depend on prior store")
	}
}

func TestSteadyStateAmortizes(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	// Independent body: load + add + store on distinct arrays.
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: "a(i)", Base: "a"})
	b.Append(ir.Instr{Op: ir.OpFAdd, Dst: 1, Srcs: []ir.Reg{0, 100}})
	b.Append(ir.Instr{Op: ir.OpFStore, Srcs: []ir.Reg{1}, Addr: "b(i)", Base: "b"})
	one, err := Estimate(m, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	per, _, err := SteadyState(m, b, Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if per >= float64(one.Cost) {
		t.Errorf("steady state %v not better than single iteration %d", per, one.Cost)
	}
}

func TestBranchCovered(t *testing.T) {
	// FXU starts at 0, FPU at 3 → a 3-cycle branch cost is fully hidden.
	cb := CostBlock{
		Height: 10,
		First:  map[machine.UnitKind]int{machine.FXU: 0, machine.FPU: 3},
		Last:   map[machine.UnitKind]int{machine.FXU: 9, machine.FPU: 9},
		Busy:   map[machine.UnitKind]int{machine.FXU: 5, machine.FPU: 5},
	}
	if got := BranchCovered(cb, 3); got != 0 {
		t.Errorf("covered branch cost = %d, want 0", got)
	}
	// FPU starts at 1 → 2 cycles uncovered.
	cb.First[machine.FPU] = 1
	if got := BranchCovered(cb, 3); got != 2 {
		t.Errorf("partially covered = %d, want 2", got)
	}
	// No FXU activity → full cost.
	cb2 := CostBlock{Height: 5, First: map[machine.UnitKind]int{machine.FPU: 0}}
	if got := BranchCovered(cb2, 3); got != 3 {
		t.Errorf("no-FXU branch cost = %d", got)
	}
}

func TestQuickEstimateBounds(t *testing.T) {
	// Property: critical-path latency ≤ cost ≤ sum of latencies, for
	// random FP blocks.
	m := machine.NewPOWER1()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := &ir.Block{}
		n := 1 + r.Intn(20)
		for i := 0; i < n; i++ {
			var srcs []ir.Reg
			for s := 0; s < 2; s++ {
				if i > 0 && r.Intn(2) == 0 {
					srcs = append(srcs, ir.Reg(r.Intn(i)))
				} else {
					srcs = append(srcs, ir.Reg(1000+r.Intn(50)))
				}
			}
			ops := []ir.Op{ir.OpFAdd, ir.OpFMul, ir.OpFSub, ir.OpIAdd}
			b.Append(ir.Instr{Op: ops[r.Intn(len(ops))], Dst: ir.Reg(i), Srcs: srcs})
		}
		res, err := Estimate(m, b, Options{})
		if err != nil {
			return false
		}
		sumLat := 0
		for _, in := range b.Instrs {
			sumLat += m.Latency(in.Op)
		}
		// Upper bound: fully serial.
		if res.Cost > sumLat {
			return false
		}
		// Lower bound: as many cycles as the busiest unit's occupancy.
		busiest := 0
		for _, v := range res.Shape.Busy {
			if v > busiest {
				busiest = v
			}
		}
		return res.Cost >= busiest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickFocusSpanNeverImproves(t *testing.T) {
	m := machine.NewPOWER1()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := &ir.Block{}
		n := 1 + r.Intn(15)
		for i := 0; i < n; i++ {
			ops := []ir.Op{ir.OpFAdd, ir.OpIAdd, ir.OpFMul, ir.OpFLoad}
			op := ops[r.Intn(len(ops))]
			in := ir.Instr{Op: op, Dst: ir.Reg(i)}
			if op == ir.OpFLoad {
				in.Addr, in.Base = "x("+itoa(i)+")", "x"
			} else {
				in.Srcs = []ir.Reg{ir.Reg(1000 + r.Intn(9)), ir.Reg(1000 + r.Intn(9))}
			}
			b.Append(in)
		}
		full, err1 := Estimate(m, b, Options{})
		tight, err2 := Estimate(m, b, Options{FocusSpan: 1 + r.Intn(4)})
		if err1 != nil || err2 != nil {
			return false
		}
		return tight.Cost >= full.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property (deterministic sweep): the Figure 9 shape estimate stays
// within a bounded band of the true concatenated cost. It is not
// strictly one-sided — the greedy placer is order-sensitive, so
// re-placing the merged stream can land a dependent chain later than
// the rigid-shift bound assumes, and backfilling can land it earlier.
// We assert the error distribution: small on average, bounded in the
// worst case.
func TestConcatErrorDistribution(t *testing.T) {
	m := machine.NewPOWER1()
	mk := func(r *rand.Rand, tag string) *ir.Block {
		b := &ir.Block{}
		n := 2 + r.Intn(10)
		for i := 0; i < n; i++ {
			ops := []ir.Op{ir.OpFAdd, ir.OpFMul, ir.OpFLoad, ir.OpFStore, ir.OpIAdd}
			op := ops[r.Intn(len(ops))]
			in := ir.Instr{Op: op, Dst: ir.Reg(i)}
			switch {
			case op.IsLoad():
				in.Addr, in.Base = tag+"x("+itoa(i)+")", tag+"x"
			case op.IsStore():
				in.Dst = ir.NoReg
				in.Srcs = []ir.Reg{srcReg2(r, i)}
				in.Addr, in.Base = tag+"y("+itoa(i)+")", tag+"y"
			default:
				in.Srcs = []ir.Reg{srcReg2(r, i), srcReg2(r, i)}
			}
			b.Append(in)
		}
		return b
	}
	opt := Options{DispatchWidth: 64}
	var sumAbs, worst float64
	const trials = 400
	for seed := int64(0); seed < trials; seed++ {
		r := rand.New(rand.NewSource(seed))
		a, b := mk(r, "a"), mk(r, "b")
		ra, err1 := Estimate(m, a, opt)
		rb, err2 := Estimate(m, b, opt)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		combined, _ := Concat(ra.Shape, rb.Shape)
		merged := a.Clone()
		off := merged.MaxReg() + 1
		for _, in := range b.Instrs {
			c := in
			c.Srcs = append([]ir.Reg(nil), in.Srcs...)
			for k, sr := range c.Srcs {
				if sr != ir.NoReg {
					c.Srcs[k] = sr + off
				}
			}
			if c.Dst != ir.NoReg {
				c.Dst += off
			}
			merged.Instrs = append(merged.Instrs, c)
		}
		exact, err := Estimate(m, merged, opt)
		if err != nil {
			t.Fatal(err)
		}
		e := (float64(combined.Height) - float64(exact.Cost)) / float64(exact.Cost)
		if e < 0 {
			e = -e
		}
		sumAbs += e
		if e > worst {
			worst = e
		}
	}
	mean := sumAbs / trials
	if mean > 0.15 {
		t.Errorf("mean |shape error| = %.1f%%, want ≤ 15%%", 100*mean)
	}
	if worst > 0.60 {
		t.Errorf("worst |shape error| = %.1f%%, want ≤ 60%%", 100*worst)
	}
	t.Logf("shape error over %d pairs: mean %.1f%%, worst %.1f%%", trials, 100*mean, 100*worst)
}

func srcReg2(r *rand.Rand, i int) ir.Reg {
	if i > 0 && r.Intn(2) == 0 {
		return ir.Reg(r.Intn(i))
	}
	return ir.Reg(5000 + r.Intn(30))
}

// Replicate renames copies by the block's own register range, so the
// replicated block stays as dense as the original wherever lowering's
// program-wide numbering placed it, and prices identically.
func TestReplicateStrideIsLocal(t *testing.T) {
	build := func(base ir.Reg) *ir.Block {
		b := &ir.Block{}
		b.Append(ir.Instr{Op: ir.OpFLoad, Dst: base, Addr: "a(i)", Base: "a"})
		b.Append(ir.Instr{Op: ir.OpFLoad, Dst: base + 1, Addr: "s", Base: "s"})
		b.Append(ir.Instr{Op: ir.OpFAdd, Dst: base + 2, Srcs: []ir.Reg{base, base + 1}})
		b.Append(ir.Instr{Op: ir.OpFStore, Srcs: []ir.Reg{base + 2}, Addr: "s", Base: "s"})
		return b
	}
	m := machine.NewPOWER1()
	low, high := build(0), build(1<<20)
	const iters = 4
	lo, hi := Replicate(high, iters).RegRange()
	if span := int(hi-lo) + 1; span > iters*3 {
		t.Errorf("replicated register span %d, want ≤ %d", span, iters*3)
	}
	for _, chain := range []map[ir.Reg]ir.Reg{nil, {1: 2}} {
		highChain := map[ir.Reg]ir.Reg{}
		for in, out := range chain {
			highChain[in+1<<20] = out + 1<<20
		}
		pl, tl, err1 := SteadyStateChained(m, low, Options{}, iters, chain)
		ph, th, err2 := SteadyStateChained(m, high, Options{}, iters, highChain)
		if err1 != nil || err2 != nil || pl != ph || tl != th {
			t.Errorf("chain %v: steady state at offset 0 = %v/%d (%v), at 1<<20 = %v/%d (%v)",
				chain, pl, tl, err1, ph, th, err2)
		}
	}
}
