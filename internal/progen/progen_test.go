package progen

import (
	"reflect"
	"testing"

	"perfpredict/internal/ir"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/tetris"
)

// Generated blocks must be well-formed SSA: every instruction carries
// exactly the operand count its opcode demands, every destination is
// fresh, and every source was defined by an earlier instruction.
func TestGenBlockWellFormed(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := NewRand(seed)
		b := GenBlock(r, BlockConfig{AllowControl: true})
		if len(b.Instrs) == 0 {
			t.Fatalf("seed %d: empty block", seed)
		}
		defined := map[ir.Reg]bool{}
		for i, in := range b.Instrs {
			if got, want := len(in.Srcs), in.Op.NumSrcs(); got != want {
				t.Fatalf("seed %d instr %d (%s): %d srcs, want %d", seed, i, in.Op, got, want)
			}
			for _, s := range in.Srcs {
				if !defined[s] {
					t.Fatalf("seed %d instr %d (%s): src r%d used before definition", seed, i, in.Op, s)
				}
			}
			if in.Op.HasDst() {
				if in.Dst == ir.NoReg {
					t.Fatalf("seed %d instr %d (%s): missing dst", seed, i, in.Op)
				}
				if defined[in.Dst] {
					t.Fatalf("seed %d instr %d (%s): dst r%d redefined", seed, i, in.Op, in.Dst)
				}
				defined[in.Dst] = true
			} else if in.Dst != ir.NoReg {
				t.Fatalf("seed %d instr %d (%s): unexpected dst r%d", seed, i, in.Op, in.Dst)
			}
		}
	}
}

// TopoShuffle must emit a dependence-respecting permutation: every
// instruction's dependences (matched structurally) appear before it.
func TestTopoShuffleRespectsDeps(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := NewRand(seed)
		b := GenBlock(r, BlockConfig{})
		for _, mayAlias := range []bool{false, true} {
			p := TopoShuffle(r, b, mayAlias)
			if len(p.Instrs) != len(b.Instrs) {
				t.Fatalf("seed %d: shuffle dropped instructions (%d -> %d)", seed, len(b.Instrs), len(p.Instrs))
			}
			// Dependences recomputed on the permuted block must all
			// point backwards by construction of Deps; the real check
			// is that the multiset of instructions is preserved.
			counts := map[string]int{}
			for _, in := range b.Instrs {
				counts[in.String()]++
			}
			for _, in := range p.Instrs {
				counts[in.String()]--
			}
			for k, c := range counts {
				if c != 0 {
					t.Fatalf("seed %d: instruction multiset changed at %q", seed, k)
				}
			}
		}
	}
}

// Generated specs are valid by construction, build a Machine, and
// price a generated block without error.
func TestGenSpecValid(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := NewRand(seed)
		s := GenSpec(r, SpecConfig{})
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: generated spec invalid: %v", seed, err)
		}
		m, err := s.Machine()
		if err != nil {
			t.Fatalf("seed %d: Machine(): %v", seed, err)
		}
		b := GenBlock(NewRand(seed+1000), BlockConfig{})
		if _, err := tetris.Estimate(m, b, tetris.Options{}); err != nil {
			t.Fatalf("seed %d: Estimate on generated spec: %v", seed, err)
		}
	}
}

// Every deliberately broken mutation must be rejected by Validate.
func TestInvalidMutationsCaught(t *testing.T) {
	s := GenSpec(NewRand(7), SpecConfig{})
	muts := InvalidMutations(s)
	if len(muts) < 15 {
		t.Fatalf("only %d mutations, want full rule coverage", len(muts))
	}
	seen := map[string]bool{}
	for _, m := range muts {
		if seen[m.Name] {
			t.Errorf("duplicate mutation name %q", m.Name)
		}
		seen[m.Name] = true
		if err := m.Spec.Validate(); err == nil {
			t.Errorf("mutation %q slipped through Validate", m.Name)
		}
	}
}

// Generated programs must parse and analyze cleanly in both flavors.
func TestGenProgramParses(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := NewRand(seed)
		src := GenProgram(r, ProgramConfig{AllowIf: true, AllowSubroutine: true})
		p, err := source.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		if _, err := sem.Analyze(p); err != nil {
			t.Fatalf("seed %d: analyze: %v\n%s", seed, err, src)
		}
	}
}

func TestLongShapesParse(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for _, src := range []string{GenLongStraight(NewRand(seed), 60), GenGuardedLoops(NewRand(seed), 30)} {
			p, err := source.Parse(src)
			if err != nil {
				t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
			}
			if _, err := sem.Analyze(p); err != nil {
				t.Fatalf("seed %d: analyze: %v\n%s", seed, err, src)
			}
		}
	}
}

// The same seed must reproduce the same block, spec, and program —
// the property that makes fuzz failures replayable from a seed.
func TestDeterminism(t *testing.T) {
	gen := func(seed int64) (*ir.Block, []byte, string) {
		r := NewRand(seed)
		b := GenBlock(r, BlockConfig{AllowControl: true})
		s := GenSpec(r, SpecConfig{})
		data, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b, data, GenProgram(r, ProgramConfig{AllowIf: true, AllowSubroutine: true})
	}
	for seed := int64(0); seed < 10; seed++ {
		b1, s1, p1 := gen(seed)
		b2, s2, p2 := gen(seed)
		if !reflect.DeepEqual(b1, b2) {
			t.Fatalf("seed %d: blocks differ", seed)
		}
		if string(s1) != string(s2) {
			t.Fatalf("seed %d: specs differ", seed)
		}
		if p1 != p2 {
			t.Fatalf("seed %d: programs differ", seed)
		}
	}
}

// RenameRegs and SwapCommutativeSrcs must preserve block structure.
func TestMetamorphicHelpers(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := NewRand(seed)
		b := GenBlock(r, BlockConfig{})
		c := SwapCommutativeSrcs(b)
		if len(c.Instrs) != len(b.Instrs) {
			t.Fatalf("seed %d: swap changed length", seed)
		}
		renamed := RenameRegs(r, b)
		if len(renamed.Instrs) != len(b.Instrs) {
			t.Fatalf("seed %d: rename changed length", seed)
		}
		seenDst := map[ir.Reg]bool{}
		for _, in := range renamed.Instrs {
			if in.Op.HasDst() {
				if seenDst[in.Dst] {
					t.Fatalf("seed %d: rename broke SSA", seed)
				}
				seenDst[in.Dst] = true
			}
		}
		if swapped, ok := SwapAdjacentSinks(b, true); ok {
			if len(swapped.Instrs) != len(b.Instrs) {
				t.Fatalf("seed %d: sink swap changed length", seed)
			}
		}
	}
}
