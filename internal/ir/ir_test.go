package ir

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestOpMetadata(t *testing.T) {
	if !OpIAdd.Commutative() || OpISub.Commutative() {
		t.Error("commutativity wrong for iadd/isub")
	}
	if OpFMA.NumSrcs() != 3 {
		t.Errorf("fma srcs = %d", OpFMA.NumSrcs())
	}
	if !OpFLoad.IsLoad() || OpFLoad.IsStore() {
		t.Error("fload classification")
	}
	if !OpFStore.IsStore() || !OpFStore.IsMem() {
		t.Error("fstore classification")
	}
	if !OpBranch.IsBranch() || OpFAdd.IsBranch() {
		t.Error("branch classification")
	}
	if OpFAdd.Class() != ClassFloat || OpIAdd.Class() != ClassInt {
		t.Error("class wrong")
	}
	if OpIStore.HasDst() {
		t.Error("istore should not define a register")
	}
}

func TestAllOpsHaveNames(t *testing.T) {
	seen := map[string]Op{}
	for _, op := range AllOps() {
		name := op.String()
		if name == "" || strings.HasPrefix(name, "op(") {
			t.Errorf("op %d has no name", op)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("duplicate mnemonic %q for %v and %v", name, prev, op)
		}
		seen[name] = op
	}
}

func TestInstrString(t *testing.T) {
	in := Instr{Op: OpFLoad, Dst: 3, Addr: "a(i,j)", Base: "a"}
	s := in.String()
	if !strings.Contains(s, "lfd") && !strings.Contains(s, "fload") {
		t.Errorf("String() = %q", s)
	}
	if !strings.Contains(s, "a(i,j)") {
		t.Errorf("missing addr in %q", s)
	}
}

// buildDaxpyBlock lowers y(i) = y(i) + a*x(i) by hand:
//
//	r0 = fload x(i); r1 = fload y(i); r2 = fload a
//	r3 = fma r0, r2, r1; fstore r3 -> y(i)
func buildDaxpyBlock() *Block {
	b := &Block{}
	b.Append(Instr{Op: OpFLoad, Dst: 0, Addr: "x(i)", Base: "x"})
	b.Append(Instr{Op: OpFLoad, Dst: 1, Addr: "y(i)", Base: "y"})
	b.Append(Instr{Op: OpFLoad, Dst: 2, Addr: "a", Base: "a"})
	b.Append(Instr{Op: OpFMA, Dst: 3, Srcs: []Reg{0, 2, 1}})
	b.Append(Instr{Op: OpFStore, Srcs: []Reg{3}, Addr: "y(i)", Base: "y"})
	return b
}

func TestDepsRegisterRAW(t *testing.T) {
	b := buildDaxpyBlock()
	deps := b.Deps(false)
	// FMA (index 3) depends on all three loads.
	if len(deps[3]) != 3 {
		t.Fatalf("fma deps = %v", deps[3])
	}
	// Store depends on FMA (reg) and the load of y(i) (WAR on address).
	got := map[int]bool{}
	for _, d := range deps[4] {
		got[d] = true
	}
	if !got[3] {
		t.Errorf("store missing RAW dep on fma: %v", deps[4])
	}
	if !got[1] {
		t.Errorf("store missing WAR dep on load y(i): %v", deps[4])
	}
}

func TestDepsMemoryRAWSameAddr(t *testing.T) {
	b := &Block{}
	b.Append(Instr{Op: OpFStore, Srcs: []Reg{0}, Addr: "s", Base: "s"})
	b.Append(Instr{Op: OpFLoad, Dst: 1, Addr: "s", Base: "s"})
	deps := b.Deps(false)
	if len(deps[1]) != 1 || deps[1][0] != 0 {
		t.Errorf("load-after-store deps = %v", deps[1])
	}
}

func TestDepsDistinctSubscriptsIndependent(t *testing.T) {
	b := &Block{}
	b.Append(Instr{Op: OpFStore, Srcs: []Reg{0}, Addr: "a(i)", Base: "a"})
	b.Append(Instr{Op: OpFLoad, Dst: 1, Addr: "a(i+1)", Base: "a"})
	if deps := b.Deps(false); len(deps[1]) != 0 {
		t.Errorf("distinct subscripts should be independent: %v", deps[1])
	}
	// Conservative mode orders them.
	if deps := b.Deps(true); len(deps[1]) != 1 {
		t.Errorf("mayAlias should order them: %v", deps[1])
	}
}

func TestDepsWAW(t *testing.T) {
	b := &Block{}
	b.Append(Instr{Op: OpFStore, Srcs: []Reg{0}, Addr: "s", Base: "s"})
	b.Append(Instr{Op: OpFStore, Srcs: []Reg{1}, Addr: "s", Base: "s"})
	deps := b.Deps(false)
	if len(deps[1]) != 1 || deps[1][0] != 0 {
		t.Errorf("WAW deps = %v", deps[1])
	}
}

func TestCriticalPath(t *testing.T) {
	b := buildDaxpyBlock()
	// load -> fma -> store = 3
	if cp := b.CriticalPathLen(false); cp != 3 {
		t.Errorf("critical path = %d, want 3", cp)
	}
	// Independent ops: path 1.
	b2 := &Block{}
	for i := 0; i < 5; i++ {
		b2.Append(Instr{Op: OpFAdd, Dst: Reg(2 * i), Srcs: []Reg{Reg(2*i + 100), Reg(2*i + 200)}})
	}
	if cp := b2.CriticalPathLen(false); cp != 1 {
		t.Errorf("independent critical path = %d", cp)
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := buildDaxpyBlock()
	c := b.Clone()
	c.Instrs[3].Srcs[0] = 99
	c.Instrs[0].Addr = "z(i)"
	if b.Instrs[3].Srcs[0] == 99 || b.Instrs[0].Addr == "z(i)" {
		t.Error("Clone shares state with original")
	}
}

func TestCountsAndMaxReg(t *testing.T) {
	b := buildDaxpyBlock()
	c := b.Counts()
	if c[OpFLoad] != 3 || c[OpFMA] != 1 || c[OpFStore] != 1 {
		t.Errorf("counts = %v", c)
	}
	if b.MaxReg() != 3 {
		t.Errorf("MaxReg = %d", b.MaxReg())
	}
	if (&Block{}).MaxReg() != NoReg {
		t.Error("empty MaxReg should be NoReg")
	}
}

func TestBlockString(t *testing.T) {
	b := buildDaxpyBlock()
	b.Label = "daxpy"
	s := b.String()
	if !strings.Contains(s, "daxpy:") || !strings.Contains(s, "fma") {
		t.Errorf("block string: %q", s)
	}
}

func TestParseOp(t *testing.T) {
	for _, op := range AllOps() {
		got, ok := ParseOp(op.String())
		if !ok || got != op {
			t.Errorf("ParseOp(%q) = %v, %v; want %v, true", op.String(), got, ok, op)
		}
	}
	if _, ok := ParseOp("warp"); ok {
		t.Error("ParseOp accepted an unknown mnemonic")
	}
	if _, ok := ParseOp(""); ok {
		t.Error("ParseOp accepted the empty string")
	}
}

// Regression: under conservative aliasing, a load must depend on the
// last write to its *base* even when its exact address also has an
// earlier writer. The old rule took the exact-address RAW dep and
// skipped the base check, so the intervening possibly-aliasing store
// could reorder around the load — which made the dependence relation
// differ between equivalent presentations of the same block (found by
// the oracle's topological-permutation invariant, fuzz seed -50).
func TestDepsMayAliasStoreBetweenWriteAndLoad(t *testing.T) {
	b := &Block{}
	b.Append(Instr{Op: OpFStore, Srcs: []Reg{0}, Addr: "c(j,i)", Base: "c"})
	b.Append(Instr{Op: OpIStore, Srcs: []Reg{1}, Addr: "c(i)", Base: "c"})
	b.Append(Instr{Op: OpFLoad, Dst: 2, Addr: "c(j,i)", Base: "c"})

	// Exact mode: only the same-address RAW dep.
	if deps := b.Deps(false); len(deps[2]) != 1 || deps[2][0] != 0 {
		t.Errorf("exact-mode load deps = %v, want [0]", deps[2])
	}
	// Conservative mode: the store to c(i) may alias c(j,i), so the
	// load depends on both writes.
	deps := b.Deps(true)
	got := append([]int(nil), deps[2]...)
	sort.Ints(got)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("mayAlias load deps = %v, want [0 1]", deps[2])
	}
}

// ParseOp must reject everything that is not a mnemonic exactly as
// Op.String spells it: the mnemonics are machine-description keys, so
// near-misses are description bugs to surface, not input to repair.
func TestParseOpRejectsTable(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"unknown mnemonic", "warp"},
		{"empty string", ""},
		{"the invalid sentinel", "invalid"},
		{"wrong case", "FADD"},
		{"leading space", " fadd"},
		{"trailing space", "fadd "},
		{"prefix of a mnemonic", "fad"},
		{"mnemonic plus suffix", "fadd2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if op, ok := ParseOp(tc.in); ok {
				t.Errorf("ParseOp(%q) = %v, true; want rejection", tc.in, op)
			}
		})
	}
}

// Lowering numbers registers program-wide, so a block late in a long
// program reads and defines registers far from zero. Its dependence
// scratch must be sized by the block's own register span, not by the
// absolute numbers, and the edges must not depend on the offset.
func TestDepsScratchSizedBySpan(t *testing.T) {
	build := func(base Reg) *Block {
		b := &Block{}
		b.Append(Instr{Op: OpFLoad, Dst: base, Addr: "a(i)", Base: "a"})
		b.Append(Instr{Op: OpFLoad, Dst: base + 1, Addr: "b(i)", Base: "b"})
		b.Append(Instr{Op: OpFAdd, Dst: base + 2, Srcs: []Reg{base, base + 1}})
		b.Append(Instr{Op: OpFMul, Dst: base + 3, Srcs: []Reg{base + 2, 7}}) // 7: defined elsewhere
		b.Append(Instr{Op: OpFStore, Srcs: []Reg{base + 3}, Addr: "a(i)", Base: "a"})
		return b
	}
	want := build(0).Deps(true)
	b := build(1 << 20)
	sc := new(depsScratch)
	got := b.depsWith(sc, true, nil)
	if lo, hi := b.RegRange(); lo != 7 || hi != 1<<20+3 {
		t.Errorf("RegRange = %d..%d, want 7..%d", lo, hi, 1<<20+3)
	}
	if span := 4; len(sc.def) > span || cap(sc.def) > span {
		t.Errorf("def table len %d cap %d, want ≤ the block's def span %d", len(sc.def), cap(sc.def), span)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deps at offset 1<<20 = %v, want %v", got, want)
	}
}
