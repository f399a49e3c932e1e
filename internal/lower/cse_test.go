package lower

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
	"perfpredict/internal/progen"
)

// scanKill is the specification of killCSE: drop every key that
// contains "[addr]" or "[base(".
func scanKill(cse map[string]ir.Reg, addr, base string) {
	for k := range cse {
		if strings.Contains(k, "["+addr+"]") || strings.Contains(k, "["+base+"(") {
			delete(cse, k)
		}
	}
}

func sortedKeys(m map[string]ir.Reg) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// The bucketed kill removes exactly the keys the full-table scan
// removes, over random key sets shaped like the translator's: loads of
// scalars and array elements (affine and indirect subscripts),
// arithmetic, negation and intrinsics over them.
func TestKillCSEMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	scalars := []string{"s", "s1", "t", "argtmp3"}
	arrays := []string{"a", "ab", "b", "idx"}
	var key func(depth int) string
	key = func(depth int) string {
		switch n := r.Intn(7); {
		case n == 0 || depth == 0:
			return loadKey(scalars[r.Intn(len(scalars))])
		case n == 1:
			return loadKey(arrays[r.Intn(len(arrays))] + "(i+" + string(rune('0'+r.Intn(3))) + ")")
		case n == 2:
			return loadKey(arrays[r.Intn(len(arrays))] + "(" + key(depth-1) + ")")
		case n == 3:
			return "neg(" + key(depth-1) + ")"
		case n == 4:
			return "sqrt(" + key(depth-1) + ")"
		default:
			return "(" + key(depth-1) + "*" + key(depth-1) + ")"
		}
	}
	for trial := 0; trial < 200; trial++ {
		tr := &Translator{}
		tr.clearCSE()
		ref := map[string]ir.Reg{}
		for step := 0; step < 60; step++ {
			if r.Intn(3) > 0 {
				k := key(3)
				tr.setCSE(k, ir.Reg(step))
				ref[k] = ir.Reg(step)
				continue
			}
			addr, base := scalars[r.Intn(len(scalars))], ""
			if r.Intn(2) == 0 {
				base = arrays[r.Intn(len(arrays))]
				addr = base + "(i+" + string(rune('0'+r.Intn(3))) + ")"
			} else {
				base = addr
			}
			tr.killCSE(addr, base)
			scanKill(ref, addr, base)
			if got, want := sortedKeys(tr.cse), sortedKeys(ref); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("trial %d: store %s: kept %v, scan keeps %v", trial, addr, got, want)
			}
		}
	}
}

// A store inspects only the bucket of its own base: entries over other
// locations are never looked at, and its bucket is emptied.
func TestKillCSEInspectsOnlyItsBucket(t *testing.T) {
	tr := &Translator{}
	tr.clearCSE()
	const n = 50
	for i := 0; i < n; i++ {
		for _, arr := range []string{"a", "b", "c"} {
			k := loadKey(arr + "(" + string(rune('0'+i%10)) + strings.Repeat("+1", i/10) + ")")
			tr.setCSE(k, ir.Reg(i))
		}
	}
	tr.killCSE("a(1)", "a")
	if tr.cseProbes != n {
		t.Errorf("store to a(1) probed %d entries, want the %d in a's bucket", tr.cseProbes, n)
	}
	if len(tr.cse) != 2*n {
		t.Errorf("%d entries left, want the %d over b and c", len(tr.cse), 2*n)
	}
	tr.killCSE("a(2)", "a")
	if tr.cseProbes != n {
		t.Errorf("second store to a probed %d entries in total, want its empty bucket only", tr.cseProbes)
	}
}

// Lowering a straight body probes CSE entries in proportion to its
// length: 4× the statements may cost at most 5× the probes.
func TestLowerCSEProbesLinear(t *testing.T) {
	probes := func(n int) int {
		tbl, body := prep(t, progen.GenLongStraight(progen.NewRand(1), n))
		tr := New(tbl, machine.NewPOWER1(), DefaultOptions())
		if _, err := tr.Body(body, nil); err != nil {
			t.Fatal(err)
		}
		return tr.cseProbes
	}
	small, big := probes(500), probes(2000)
	if small == 0 || big > 5*small {
		t.Errorf("CSE probes: %d for 500 statements, %d for 2000; want > 0 and ≤ 5×", small, big)
	}
}
