package symexpr

import (
	"math"
	"strings"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestConstAndZero(t *testing.T) {
	z := Zero()
	if !z.IsZero() {
		t.Error("Zero() not zero")
	}
	c := Const(3.5)
	v, ok := c.IsConst()
	if !ok || v != 3.5 {
		t.Errorf("Const(3.5): got (%v, %v)", v, ok)
	}
	if Const(0).NumTerms() != 0 {
		t.Error("Const(0) should have no terms")
	}
}

func TestAddSub(t *testing.T) {
	n := NewVar("n")
	p := n.Scale(2).AddConst(3) // 2n + 3
	q := n.Scale(5).AddConst(-1)
	sum := p.Add(q)
	got := sum.MustEval(map[Var]float64{"n": 10})
	approx(t, got, 2*10+3+5*10-1, 1e-9, "Add eval")
	diff := p.Sub(p)
	if !diff.IsZero() {
		t.Errorf("p - p = %v, want 0", diff)
	}
}

func TestMul(t *testing.T) {
	n, k := NewVar("n"), NewVar("k")
	// (n + 2)(k − 3) = nk − 3n + 2k − 6
	p := n.AddConst(2).Mul(k.AddConst(-3))
	want := Term(1, Monomial{"n": 1, "k": 1}).
		Add(Term(-3, Monomial{"n": 1})).
		Add(Term(2, Monomial{"k": 1})).
		AddConst(-6)
	if !p.Equal(want, 1e-12) {
		t.Errorf("got %v, want %v", p, want)
	}
}

func TestMulCancellation(t *testing.T) {
	n := NewVar("n")
	// (n + 1)(n − 1) = n² − 1
	p := n.AddConst(1).Mul(n.AddConst(-1))
	if p.NumTerms() != 2 {
		t.Errorf("(n+1)(n-1) has %d terms: %v", p.NumTerms(), p)
	}
	approx(t, p.MustEval(map[Var]float64{"n": 7}), 48, 1e-9, "eval")
}

func TestPow(t *testing.T) {
	n := NewVar("n")
	p := n.AddConst(1).Pow(3) // n³+3n²+3n+1
	approx(t, p.MustEval(map[Var]float64{"n": 2}), 27, 1e-9, "(n+1)^3 at 2")
	if d := p.Degree("n"); d != 3 {
		t.Errorf("degree = %d, want 3", d)
	}
	if !n.Pow(0).Equal(Const(1), 0) {
		t.Error("n^0 != 1")
	}
}

func TestPowNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pow(-1) did not panic")
		}
	}()
	NewVar("n").Pow(-1)
}

func TestLaurentTerms(t *testing.T) {
	// 1/x^3 evaluates correctly and Degree/MinDegree track it.
	p := Term(1, Monomial{"x": -3})
	approx(t, p.MustEval(map[Var]float64{"x": 2}), 0.125, 1e-12, "x^-3 at 2")
	if p.MinDegree("x") != -3 {
		t.Errorf("MinDegree = %d", p.MinDegree("x"))
	}
	if p.IsPolynomialIn("x") {
		t.Error("1/x^3 claimed polynomial in x")
	}
	if _, err := p.Eval(map[Var]float64{"x": 0}); err == nil {
		t.Error("expected division-by-zero error")
	}
}

func TestEvalUnbound(t *testing.T) {
	p := NewVar("n")
	if _, err := p.Eval(map[Var]float64{}); err == nil {
		t.Error("expected unbound-variable error")
	}
}

func TestSubstitute(t *testing.T) {
	n, m := Var("n"), Var("m")
	p := NewVar(n).Pow(2).Add(NewVar(n)).AddConst(1) // n²+n+1
	// n := m + 1  →  m²+3m+3
	q, err := p.Substitute(n, NewVar(m).AddConst(1))
	if err != nil {
		t.Fatal(err)
	}
	want := NewVar(m).Pow(2).Add(NewVar(m).Scale(3)).AddConst(3)
	if !q.Equal(want, 1e-12) {
		t.Errorf("got %v, want %v", q, want)
	}
}

func TestSubstituteConst(t *testing.T) {
	p := NewVar("n").Pow(2).Add(Term(4, Monomial{"n": -1}))
	q, err := p.Substitute("n", Const(2))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := q.IsConst()
	if !ok {
		t.Fatalf("not const: %v", q)
	}
	approx(t, v, 4+2, 1e-12, "subst const")
}

func TestSubstitutePolyIntoNegativePowerFails(t *testing.T) {
	p := Term(1, Monomial{"n": -1})
	if _, err := p.Substitute("n", NewVar("m").AddConst(1)); err == nil {
		t.Error("expected error substituting poly into n^-1")
	}
}

func TestCoeffs(t *testing.T) {
	n := Var("n")
	p := NewVar(n).Pow(3).Scale(4).Sub(NewVar(n).Scale(2)).AddConst(7)
	c, err := p.Coeffs(n)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{7, -2, 0, 4}
	if len(c) != len(want) {
		t.Fatalf("len = %d, want %d", len(c), len(want))
	}
	for i := range want {
		approx(t, c[i], want[i], 1e-12, "coeff")
	}
	// Multivariate fails.
	p2 := p.Add(NewVar("k"))
	if _, err := p2.Coeffs(n); err == nil {
		t.Error("expected error for multivariate Coeffs")
	}
}

func TestCoeffOf(t *testing.T) {
	// p = 3n²k + 2n² − n + 5; CoeffOf(n, 2) = 3k + 2
	p := Term(3, Monomial{"n": 2, "k": 1}).
		Add(Term(2, Monomial{"n": 2})).
		Add(Term(-1, Monomial{"n": 1})).
		AddConst(5)
	c := p.CoeffOf("n", 2)
	want := NewVar("k").Scale(3).AddConst(2)
	if !c.Equal(want, 1e-12) {
		t.Errorf("got %v, want %v", c, want)
	}
	if !p.CoeffOf("n", 5).IsZero() {
		t.Error("CoeffOf missing power should be zero")
	}
}

func TestDerivative(t *testing.T) {
	n := Var("n")
	p := NewVar(n).Pow(3).Scale(2).Add(NewVar(n).Scale(5)).AddConst(9)
	d := p.Derivative(n)
	want := NewVar(n).Pow(2).Scale(6).AddConst(5)
	if !d.Equal(want, 1e-12) {
		t.Errorf("got %v, want %v", d, want)
	}
	// Derivative of Laurent term: d/dx x^-2 = -2 x^-3
	l := Term(1, Monomial{"x": -2}).Derivative("x")
	if !l.Equal(Term(-2, Monomial{"x": -3}), 1e-12) {
		t.Errorf("laurent derivative: %v", l)
	}
}

func TestVars(t *testing.T) {
	p := Term(1, Monomial{"b": 1}).Add(Term(1, Monomial{"a": 2})).AddConst(3)
	vs := p.Vars()
	if len(vs) != 2 || vs[0] != "a" || vs[1] != "b" {
		t.Errorf("Vars = %v", vs)
	}
}

func TestString(t *testing.T) {
	p := NewVar("n").Pow(2).Scale(3).Sub(NewVar("n").Scale(2)).AddConst(1)
	s := p.String()
	for _, want := range []string{"3·n^2", "2·n", "1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if Zero().String() != "0" {
		t.Errorf("Zero string: %q", Zero().String())
	}
}

func TestMulVar(t *testing.T) {
	p := NewVar("n").AddConst(1)
	q := p.MulVar("n", 1) // n² + n
	want := NewVar("n").Pow(2).Add(NewVar("n"))
	if !q.Equal(want, 1e-12) {
		t.Errorf("got %v, want %v", q, want)
	}
	r := q.MulVar("n", -1) // back to n + 1
	if !r.Equal(p, 1e-12) {
		t.Errorf("MulVar inverse: %v", r)
	}
}

func TestImmutability(t *testing.T) {
	p := NewVar("n").AddConst(1)
	before := p.String()
	_ = p.Add(NewVar("k"))
	_ = p.Mul(NewVar("k"))
	_ = p.Scale(10)
	if p.String() != before {
		t.Errorf("operations mutated receiver: %q -> %q", before, p.String())
	}
}

func TestTermsOrderStable(t *testing.T) {
	p := NewVar("b").Add(NewVar("a")).AddConst(1)
	t1 := p.Terms()
	t2 := p.Terms()
	if len(t1) != len(t2) || len(t1) != 3 {
		t.Fatalf("terms: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i].Coeff != t2[i].Coeff {
			t.Error("unstable term order")
		}
	}
}

// AddInPlace agrees with Add term for term (including cancellation to
// zero) and never writes into its addend: growing a sum from the zero
// value must copy the first addend, not adopt its table.
func TestAddInPlaceMatchesAdd(t *testing.T) {
	n, p := NewVar("n"), NewVar("p")
	parts := []Poly{
		n.Scale(3).AddConst(1),
		p.Mul(n).Scale(0.1),
		Zero(),
		n.Scale(-3),
		p.Mul(n).Scale(0.2).AddConst(-1),
	}
	first := parts[0].String()
	var acc, want Poly
	for _, q := range parts {
		acc.AddInPlace(q)
		want = want.Add(q)
		if acc.String() != want.String() || acc.NumTerms() != want.NumTerms() {
			t.Fatalf("AddInPlace sum %v (%d terms), Add sum %v (%d terms)", acc, acc.NumTerms(), want, want.NumTerms())
		}
	}
	if parts[0].String() != first {
		t.Errorf("first addend changed to %v, want %v", parts[0], first)
	}
}
