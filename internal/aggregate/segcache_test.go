package aggregate

import (
	"testing"

	"perfpredict/internal/kernels"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// branchySrc exercises every conditional form the aggregator knows: a
// symbolic condition with a hoisted part, a mod condition, a
// loop-index split, a top-level IF and an IF with no else.
const branchySrc = `
program branchy
  integer i, j, n, m, k
  real a(100), b(100), s, t
  do i = 1, n
    if (a(i) * s .gt. b(i) + t) then
      a(i) = a(i) * 2.0
      s = s + a(i)
    else
      b(i) = b(i) - 1.0
    end if
    if (mod(i, 4) .eq. 0) then
      t = t + b(i)
    end if
    do j = 1, m
      if (j .le. k) then
        a(j) = a(j) + b(j)
      else
        b(j) = a(j) * b(j)
      end if
    end do
  end do
  if (n .gt. m) then
    s = s + t
  else
    t = s * 2.0
  end if
end
`

type memoProgram struct {
	name string
	prog *source.Program
	tbl  *sem.Table
}

func memoPrograms(t *testing.T) []memoProgram {
	t.Helper()
	var out []memoProgram
	for _, k := range kernels.All() {
		p, tbl, err := k.Parse()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, memoProgram{k.Name, p, tbl})
	}
	p, err := source.Parse(branchySrc)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, memoProgram{"branchy", p, tbl})
}

// TestWarmSegCachePlacesNoBlocks prices every program once to warm a
// shared SegCache, then again with a fresh NestCache, so every nest is
// walked live. The warm walk must place no block at all (zero tetris
// calls), miss nothing, and give the bytes of private pricing.
func TestWarmSegCachePlacesNoBlocks(t *testing.T) {
	m := machine.NewPOWER1()
	opt := DefaultOptions()
	seg := NewSegCache()
	for _, mp := range memoPrograms(t) {
		want, err := New(mp.tbl, m, opt).Program(mp.prog)
		if err != nil {
			t.Fatalf("%s: %v", mp.name, err)
		}
		if _, err := NewWithCaches(mp.tbl, m, opt, Caches{Seg: seg, Nest: NewNestCache()}).Program(mp.prog); err != nil {
			t.Fatalf("%s: cold: %v", mp.name, err)
		}
		_, misses0 := seg.Stats()
		nest := NewNestCache()
		got, err := NewWithCaches(mp.tbl, m, opt, Caches{Seg: seg, Nest: nest}).Program(mp.prog)
		if err != nil {
			t.Fatalf("%s: warm: %v", mp.name, err)
		}
		if n := nest.TetrisCalls(); n != 0 {
			t.Errorf("%s: warm walk made %d tetris calls", mp.name, n)
		}
		if _, misses := seg.Stats(); misses != misses0 {
			t.Errorf("%s: warm walk missed %d times", mp.name, misses-misses0)
		}
		if resultSignature(got) != resultSignature(want) {
			t.Errorf("%s: warm walk\n%s\nprivate\n%s", mp.name, resultSignature(got), resultSignature(want))
		}
	}
}

// TestSegCacheMemoScope: a counting-mode NestCache keeps the estimator
// on straight-segment entries only, and fragment pricing does not touch
// the cache at all.
func TestSegCacheMemoScope(t *testing.T) {
	m := machine.NewPOWER1()
	opt := DefaultOptions()
	for _, mp := range memoPrograms(t) {
		seg := NewSegCache()
		if _, err := NewWithCaches(mp.tbl, m, opt, Caches{Seg: seg, Nest: NewNestCacheCounting()}).Program(mp.prog); err != nil {
			t.Fatalf("%s: %v", mp.name, err)
		}
		if n := seg.bounds.len() + seg.ctls.len() + seg.conds.len(); n != 0 {
			t.Errorf("%s: counting mode stored %d non-segment entries", mp.name, n)
		}
		if seg.segs.len() == 0 {
			t.Errorf("%s: counting mode stored no segment entries", mp.name)
		}

		frag := NewSegCache()
		if _, err := NewWithCache(mp.tbl, m, opt, frag).Stmts(mp.prog.Body, nil); err != nil {
			t.Fatalf("%s: fragment: %v", mp.name, err)
		}
		if hits, misses := frag.Stats(); frag.Len() != 0 || hits+misses != 0 {
			t.Errorf("%s: fragment pricing used the cache (%d entries, %d lookups)", mp.name, frag.Len(), hits+misses)
		}
	}
}
