package perfpredict

import (
	"context"
	"testing"

	"perfpredict/internal/aggregate"
)

// declPair is two programs whose executable text is identical and
// whose declarations differ: the integer variant lowers to integer
// ops, so every cost it shares a key with the real variant is wrong.
var declPair = [2]string{
	"program p\nreal x, y, s\ninteger i\ndo i = 1, 100\ns = s + x * y\nenddo\nend\n",
	"program p\ninteger x, y, s\ninteger i\ndo i = 1, 100\ns = s + x * y\nenddo\nend\n",
}

// TestSharedCacheSeparatesDeclarations prices the two programs of
// declPair through one shared segment cache, in both orders, and
// requires the bytes of private pricing: a cached cost must never
// answer for a program whose declarations differ.
func TestSharedCacheSeparatesDeclarations(t *testing.T) {
	target := POWER1()
	var want [2]string
	for i, src := range declPair {
		p, err := Predict(src, target)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.Cost.String()
	}
	if want[0] == want[1] {
		t.Fatalf("declaration pair prices identically (%s); the test needs differing costs", want[0])
	}
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		cache := NewSegmentCache()
		for _, i := range order {
			preds, errs := PredictBatchCtx(context.Background(), []string{declPair[i]}, target,
				BatchOptions{Workers: 1, Cache: cache})
			if errs[0] != nil {
				t.Fatal(errs[0])
			}
			if got := preds[0].Cost.String(); got != want[i] {
				t.Errorf("order %v, program %d: shared cache gives %q, private %q", order, i, got, want[i])
			}
		}
	}
}

// overlapSrc has independent iterations, so its steady-state cost
// depends on how many iterations the bins overlap.
const overlapSrc = "program q\nreal a(100), b(100), c\ninteger i\ndo i = 1, 100\na(i) = b(i) * c + 1.0\nenddo\nend\n"

// TestSharedCacheSeparatesOptions prices one program with default
// aggregation options and then with SteadyStateIters 1 on the same
// cache: the second answer must be the one private pricing gives.
func TestSharedCacheSeparatesOptions(t *testing.T) {
	target := POWER1()
	opt := aggregate.DefaultOptions()
	opt.SteadyStateIters = 1
	private, err := PredictCtx(context.Background(), overlapSrc, target, PredictOptions{Aggregate: &opt})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSegmentCache()
	def, err := PredictCtx(context.Background(), overlapSrc, target, PredictOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if def.Cost.String() == private.Cost.String() {
		t.Fatalf("options pair prices identically (%s); the test needs differing costs", def.Cost)
	}
	shared, err := PredictCtx(context.Background(), overlapSrc, target, PredictOptions{Aggregate: &opt, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := shared.Cost.String(), private.Cost.String(); got != want {
		t.Errorf("SteadyStateIters 1 after default options on a shared cache: %q, private %q", got, want)
	}
}
