package ir

import (
	"fmt"
	"strings"
	"sync"
)

// Reg is a virtual register. Lowering produces SSA-like code: every
// instruction that defines a value defines a fresh register, so the
// only register dependences are read-after-write.
type Reg int32

// NoReg marks an absent register operand.
const NoReg Reg = -1

// Instr is one basic operation instance.
type Instr struct {
	Op   Op
	Dst  Reg
	Srcs []Reg

	// Addr names the memory location for loads/stores, as a canonical
	// lexical address string such as "a(i,j)" or "a(i,j+1)". Two memory
	// operations with equal Addr strings access the same location in
	// one execution of the block; different strings over the same array
	// are assumed distinct within an innermost-block instance (standard
	// for the straight-line blocks the cost model handles). Base is the
	// array symbol alone.
	Addr string
	Base string

	// Imm is the immediate for OpLoadImm and the known small-multiplier
	// value for the IMulSmall specialization check.
	Imm float64

	// Callee names the routine for OpCall.
	Callee string

	// RefID is an opaque tag assigned by the translator linking a
	// memory instruction back to its source-level reference (used by
	// the interpreter to concretize addresses). Zero means untagged.
	RefID int32
}

// NewInstr builds an instruction with the given sources.
func NewInstr(op Op, dst Reg, srcs ...Reg) Instr {
	return Instr{Op: op, Dst: dst, Srcs: srcs}
}

func (in Instr) String() string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	if in.Dst != NoReg && in.Op.HasDst() {
		fmt.Fprintf(&b, " r%d", in.Dst)
	}
	for _, s := range in.Srcs {
		if s == NoReg {
			continue
		}
		fmt.Fprintf(&b, ", r%d", s)
	}
	if in.Addr != "" {
		fmt.Fprintf(&b, ", [%s]", in.Addr)
	}
	if in.Op == OpLoadImm {
		fmt.Fprintf(&b, ", #%g", in.Imm)
	}
	if in.Callee != "" {
		fmt.Fprintf(&b, ", @%s", in.Callee)
	}
	return b.String()
}

// Block is a straight-line sequence of basic operations — the unit the
// Tetris cost model prices.
type Block struct {
	Label  string
	Instrs []Instr
}

// Append adds an instruction and returns its index.
func (b *Block) Append(in Instr) int {
	b.Instrs = append(b.Instrs, in)
	return len(b.Instrs) - 1
}

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	c := &Block{Label: b.Label, Instrs: make([]Instr, len(b.Instrs))}
	for i, in := range b.Instrs {
		c.Instrs[i] = in
		c.Instrs[i].Srcs = append([]Reg(nil), in.Srcs...)
	}
	return c
}

func (b *Block) String() string {
	var sb strings.Builder
	if b.Label != "" {
		fmt.Fprintf(&sb, "%s:\n", b.Label)
	}
	for i, in := range b.Instrs {
		fmt.Fprintf(&sb, "%3d  %s\n", i, in.String())
	}
	return sb.String()
}

// MaxReg returns the highest register number used, or -1 for none.
func (b *Block) MaxReg() Reg {
	max := NoReg
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Dst > max {
			max = in.Dst
		}
		for _, s := range in.Srcs {
			if s > max {
				max = s
			}
		}
	}
	return max
}

// RegRange returns the lowest and highest register numbers the block
// reads or defines, or (NoReg, NoReg) for none; the Dst of an op
// without a result is not a register and is ignored. Lowering numbers
// registers program-wide, so a block's range, not its highest number,
// measures its register use.
func (b *Block) RegRange() (lo, hi Reg) {
	lo, hi = NoReg, NoReg
	note := func(r Reg) {
		if r < 0 {
			return
		}
		if lo < 0 || r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Op.HasDst() {
			note(in.Dst)
		}
		for _, s := range in.Srcs {
			note(s)
		}
	}
	return lo, hi
}

// Deps computes, for each instruction, the indices of earlier
// instructions it must wait for:
//
//   - register read-after-write (the SSA producer of each source);
//   - memory read-after-write, write-after-read and write-after-write
//     on identical address strings;
//   - stores to the same base array are ordered among themselves
//     conservatively when their address strings differ only if
//     mayAlias is set.
//
// This is the "filter" of the paper's cost objects: an operation that
// uses the result of another cannot drop past it into the bins.
func (b *Block) Deps(mayAlias bool) [][]int {
	return b.DepsInto(mayAlias, nil)
}

// DepsBuf is reusable storage for DepsInto: the returned slice-of-slices
// and the arena its rows point into. A caller that prices many blocks
// keeps one DepsBuf and amortizes the two allocations Deps would
// otherwise make per call.
type DepsBuf struct {
	deps  [][]int
	arena []int
}

// DepsInto is Deps with caller-owned result storage. The returned rows
// alias buf's arena and are valid until the next DepsInto call with the
// same buf; a nil buf allocates fresh storage (identical to Deps).
func (b *Block) DepsInto(mayAlias bool, buf *DepsBuf) [][]int {
	sc := depsPool.Get().(*depsScratch)
	defer depsPool.Put(sc)
	return b.depsWith(sc, mayAlias, buf)
}

// depsWith is DepsInto on an explicit scratch. Its work is
// O(len(b.Instrs) + def span + edges): nothing in it depends on
// the absolute register numbers, which lowering assigns program-wide.
func (b *Block) depsWith(sc *depsScratch, mayAlias bool, buf *DepsBuf) [][]int {
	n := len(b.Instrs)
	sc.reset()
	lo := sc.resetDefs(b.Instrs)

	for i := range b.Instrs {
		in := &b.Instrs[i]
		for _, s := range in.Srcs {
			// A source outside the block's def span has no producer here.
			if s < lo || int(s-lo) >= len(sc.def) {
				continue
			}
			if p := sc.def[s-lo]; p >= 0 {
				sc.add(i, p)
			}
		}
		if in.Op.IsMem() {
			// Intern the address strings once: every later access is an
			// index into the id-addressed tables instead of a string-keyed
			// map operation. The base tables are only consulted under
			// conservative aliasing, so the base string is not even
			// interned without it.
			ai := sc.intern(in.Addr)
			bi := int32(-1)
			if mayAlias {
				bi = sc.intern(in.Base)
			}
			if in.Op.IsLoad() {
				if w := sc.lastWrite[ai]; w >= 0 {
					sc.add(i, w) // RAW same address
				}
				// Under conservative aliasing the last write to the
				// base may target this location through a different
				// subscript, even when the exact address also has a
				// writer: both dependences are real, and dropping the
				// base one lets a possibly-aliasing store reorder
				// around the load (found by the topo-perm invariant).
				if mayAlias {
					if w := sc.lastBaseWrite[bi]; w >= 0 {
						sc.add(i, w)
					}
					sc.lastBaseReads[bi] = append(sc.lastBaseReads[bi], i)
				}
				sc.lastReads[ai] = append(sc.lastReads[ai], i)
			} else { // store
				if w := sc.lastWrite[ai]; w >= 0 {
					sc.add(i, w) // WAW
				}
				for _, r := range sc.lastReads[ai] {
					sc.add(i, r) // WAR
				}
				if mayAlias {
					if w := sc.lastBaseWrite[bi]; w >= 0 {
						sc.add(i, w)
					}
					for _, r := range sc.lastBaseReads[bi] {
						sc.add(i, r)
					}
					sc.lastBaseReads[bi] = sc.lastBaseReads[bi][:0]
					sc.lastBaseWrite[bi] = i
				}
				sc.lastWrite[ai] = i
				sc.lastReads[ai] = sc.lastReads[ai][:0]
			}
		}
		if in.Op.HasDst() && in.Dst >= 0 {
			sc.def[in.Dst-lo] = i
		}
	}

	// Bucket the edge pairs into the returned slice-of-slices through a
	// single shared arena: two allocations total (zero on a warm buf)
	// instead of one small slice per instruction with dependences.
	var deps [][]int
	var arena []int
	if buf != nil {
		if cap(buf.deps) < n {
			buf.deps = make([][]int, n, n+n/4)
		}
		deps = buf.deps[:n]
		for i := range deps {
			deps[i] = nil
		}
		if cap(buf.arena) < len(sc.edges) {
			buf.arena = make([]int, 0, len(sc.edges)+len(sc.edges)/4)
		}
		arena = buf.arena[:0]
	} else {
		deps = make([][]int, n)
		if len(sc.edges) == 0 {
			return deps
		}
		arena = make([]int, 0, len(sc.edges))
	}
	start := 0
	for k := 1; k <= len(sc.edges); k++ {
		if k == len(sc.edges) || sc.edges[k].i != sc.edges[start].i {
			lo := len(arena)
			for _, e := range sc.edges[start:k] {
				arena = append(arena, e.j)
			}
			deps[sc.edges[start].i] = arena[lo:len(arena):len(arena)]
			start = k
		}
	}
	if buf != nil {
		buf.arena = arena[:0]
	}
	return deps
}

// depEdge is one dependence pair (instruction i waits for j).
type depEdge struct{ i, j int }

// depsScratch is the pooled working state of Deps. Edges are collected
// flat; because instructions are scanned in order, all edges of one
// instruction are contiguous at the tail, which makes deduplication a
// backward scan and the final bucketing a single pass.
//
// Address and base strings are interned to dense ids on first sight, so
// the per-location state (last writer, pending readers) lives in
// id-indexed slices: one map hash per string instead of a string-keyed
// map operation per table per access.
type depsScratch struct {
	edges []depEdge
	// def maps reg-lo -> defining instr index (-1 if none), where lo
	// is the lowest register the block defines. It spans only the
	// block's own defs: lowering numbers registers program-wide, so a
	// table indexed by absolute register would cost every block O(size
	// of the program lowered before it).
	def []int

	// The intern table persists across blocks (address strings repeat
	// heavily between the blocks one scratch prices), so a repeat string
	// costs one map read and no writes. Per-id state is invalidated
	// wholesale by bumping gen: a slot whose stamp doesn't match the
	// current generation is logically fresh and is re-initialized on
	// first touch by intern.
	ids           map[string]int32
	gen           []uint32
	curGen        uint32
	lastWrite     []int   // location id -> last writing instr, -1 if none
	lastBaseWrite []int   // base id -> last writing instr, -1 if none
	lastReads     [][]int // location id -> readers since last write
	lastBaseReads [][]int // base id -> readers since last base write
}

// depsMaxInterned bounds the persistent intern table; past it the table
// is rebuilt from empty so a long-lived pooled scratch cannot grow
// without bound across unrelated blocks.
const depsMaxInterned = 1 << 12

var depsPool = sync.Pool{New: func() any { return new(depsScratch) }}

func (sc *depsScratch) reset() {
	sc.edges = sc.edges[:0]
	if sc.ids == nil || len(sc.ids) > depsMaxInterned {
		// The id-indexed slices stay at high-water length: restarted ids
		// land on stale slots, which the generation check re-initializes.
		sc.ids = make(map[string]int32, 64)
	}
	sc.curGen++
	if sc.curGen == 0 { // wrap: stale stamps could alias the new generation
		for i := range sc.gen {
			sc.gen[i] = 0
		}
		sc.curGen = 1
	}
}

// resetDefs sizes def to the span of the registers instrs define, all
// -1, and returns the lowest one (0 when nothing is defined).
func (sc *depsScratch) resetDefs(instrs []Instr) Reg {
	lo, hi := NoReg, NoReg
	for i := range instrs {
		in := &instrs[i]
		if !in.Op.HasDst() || in.Dst < 0 {
			continue
		}
		if lo < 0 || in.Dst < lo {
			lo = in.Dst
		}
		if in.Dst > hi {
			hi = in.Dst
		}
	}
	if hi < 0 {
		sc.def = sc.def[:0]
		return 0
	}
	span := int(hi-lo) + 1
	if cap(sc.def) < span {
		sc.def = make([]int, span)
	}
	sc.def = sc.def[:span]
	for i := range sc.def {
		sc.def[i] = -1
	}
	return lo
}

// intern returns the dense id of s, assigning the next one on first
// sight. The id-indexed tables are initialized lazily on an id's first
// touch in the current generation — reusing high-water slice capacity —
// so reset never walks them.
func (sc *depsScratch) intern(s string) int32 {
	id, ok := sc.ids[s]
	if !ok {
		id = int32(len(sc.ids))
		sc.ids[s] = id
		if int(id) >= len(sc.gen) {
			sc.gen = append(sc.gen, 0)
			sc.lastWrite = append(sc.lastWrite, -1)
			sc.lastBaseWrite = append(sc.lastBaseWrite, -1)
			sc.lastReads = append(sc.lastReads, nil)
			sc.lastBaseReads = append(sc.lastBaseReads, nil)
		}
	}
	if sc.gen[id] != sc.curGen {
		sc.gen[id] = sc.curGen
		sc.lastWrite[id] = -1
		sc.lastBaseWrite[id] = -1
		sc.lastReads[id] = sc.lastReads[id][:0]
		sc.lastBaseReads[id] = sc.lastBaseReads[id][:0]
	}
	return id
}

// add records that instruction i depends on j, skipping self/forward
// edges and duplicates (found by scanning the contiguous tail of edges
// already recorded for i).
func (sc *depsScratch) add(i, j int) {
	if j < 0 || j >= i {
		return
	}
	for k := len(sc.edges) - 1; k >= 0 && sc.edges[k].i == i; k-- {
		if sc.edges[k].j == j {
			return
		}
	}
	sc.edges = append(sc.edges, depEdge{i, j})
}

// CriticalPathLen returns the length (in instructions) of the longest
// dependence chain — a structural lower bound useful in tests.
func (b *Block) CriticalPathLen(mayAlias bool) int {
	deps := b.Deps(mayAlias)
	depth := make([]int, len(b.Instrs))
	max := 0
	for i := range b.Instrs {
		d := 1
		for _, j := range deps[i] {
			if depth[j]+1 > d {
				d = depth[j] + 1
			}
		}
		depth[i] = d
		if d > max {
			max = d
		}
	}
	return max
}

// Counts returns a histogram of ops — the "operation-count based cost
// model" input that the paper's model improves upon.
func (b *Block) Counts() map[Op]int {
	out := map[Op]int{}
	for _, in := range b.Instrs {
		out[in.Op]++
	}
	return out
}
