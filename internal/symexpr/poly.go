// Package symexpr implements the symbolic performance expressions of
// Wang (PLDI 1994), §2.4 and §3: multivariate Laurent polynomials over
// program unknowns (loop bounds, branch probabilities, problem sizes),
// with closed-form summation, root finding, sign-region analysis,
// symbolic comparison, term dropping, and sensitivity analysis.
//
// A performance expression is a Poly. Its variables are the unknowns the
// compiler could not resolve; estimating them is delayed as long as
// possible, and many optimization decisions can be made without ever
// guessing them (see Compare and SignRegions).
package symexpr

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Var names a symbolic unknown, e.g. "n", "k", or "p_true".
type Var string

// Monomial is a product of variables raised to integer powers.
// Negative exponents are permitted (Laurent terms such as 1/x^3,
// which §3.1 of the paper drops when dominated).
type Monomial map[Var]int

// key returns the canonical (interned) string form usable as a map
// key; see intern.go.
func (m Monomial) key() string { return monoKey(m) }

func (m Monomial) clone() Monomial {
	c := make(Monomial, len(m))
	for v, e := range m {
		if e != 0 {
			c[v] = e
		}
	}
	return c
}

// degree returns the exponent of v in m.
func (m Monomial) degree(v Var) int { return m[v] }

// totalDegree returns the sum of positive exponents minus negative ones.
func (m Monomial) totalDegree() int {
	d := 0
	for _, e := range m {
		d += e
	}
	return d
}

// Poly is a multivariate Laurent polynomial with float64 coefficients.
// The zero value is the zero polynomial. Poly values are immutable:
// all operations return new polynomials, except AddInPlace, which
// extends a running sum its caller owns.
type Poly struct {
	// terms maps a monomial key to its term. Coefficients are never
	// stored as exact zeros.
	terms map[string]polyTerm
}

type polyTerm struct {
	coeff float64
	mono  Monomial
}

// Zero returns the zero polynomial.
func Zero() Poly { return Poly{} }

// Const returns the constant polynomial c.
func Const(c float64) Poly {
	p := Poly{}
	p = p.addTerm(c, Monomial{})
	return p
}

// NewVar returns the polynomial consisting of the single variable v.
func NewVar(v Var) Poly {
	p := Poly{}
	return p.addTerm(1, Monomial{v: 1})
}

// Term returns coeff * Π v_i^e_i.
func Term(coeff float64, mono Monomial) Poly {
	p := Poly{}
	return p.addTerm(coeff, mono)
}

const coeffEps = 1e-12

// addTerm returns p with coeff*mono added, cloning p (and the caller's
// monomial, which may be reused) — the safe entry point behind Const,
// NewVar, Term and the summation code. The arithmetic hot paths below
// instead clone once and merge in place via addInto.
func (p Poly) addTerm(coeff float64, mono Monomial) Poly {
	out := p.clone()
	if math.Abs(coeff) < coeffEps {
		return out
	}
	if out.terms == nil {
		out.terms = make(map[string]polyTerm, 1)
	}
	m := mono.clone()
	addInto(out.terms, m.key(), coeff, m)
	return out
}

// addInto accumulates coeff·mono (whose canonical key is key) into a
// terms map owned by the caller. mono is retained when the key is new,
// so it must not be mutated afterwards — the package-wide invariant
// that Monomial maps inside polyTerms are immutable.
func addInto(terms map[string]polyTerm, key string, coeff float64, mono Monomial) {
	if math.Abs(coeff) < coeffEps {
		return
	}
	if t, ok := terms[key]; ok {
		c := t.coeff + coeff
		if math.Abs(c) < coeffEps {
			delete(terms, key)
		} else {
			terms[key] = polyTerm{c, t.mono}
		}
		return
	}
	terms[key] = polyTerm{coeff, mono}
}

func (p Poly) clone() Poly {
	return p.cloneExtra(0)
}

// cloneExtra clones p with capacity for extra additional terms. The
// monomial maps are shared: they are immutable once stored.
func (p Poly) cloneExtra(extra int) Poly {
	if p.terms == nil && extra == 0 {
		return Poly{}
	}
	c := Poly{terms: make(map[string]polyTerm, len(p.terms)+extra)}
	for k, t := range p.terms {
		c.terms[k] = t
	}
	return c
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p.terms) == 0 }

// IsConst reports whether p has no variables; if so it returns the value.
func (p Poly) IsConst() (float64, bool) {
	switch len(p.terms) {
	case 0:
		return 0, true
	case 1:
		for k, t := range p.terms {
			if k == "" {
				return t.coeff, true
			}
		}
	}
	return 0, false
}

// ConstPart returns the coefficient of the constant monomial.
func (p Poly) ConstPart() float64 {
	if t, ok := p.terms[""]; ok {
		return t.coeff
	}
	return 0
}

// NumTerms returns the number of (nonzero) terms.
func (p Poly) NumTerms() int { return len(p.terms) }

// Add returns p + q. The result shares monomial maps with its inputs
// (they are immutable); only the term table is fresh.
func (p Poly) Add(q Poly) Poly {
	if len(q.terms) == 0 {
		return p.clone()
	}
	out := p.cloneExtra(len(q.terms))
	for k, t := range q.terms {
		addInto(out.terms, k, t.coeff, t.mono)
	}
	return out
}

// AddInPlace sets p to p + q, reusing p's term table instead of
// cloning it, so a running sum of k polynomials costs the size of the
// addends rather than k copies of the sum. p must be owned by the
// caller — the zero value, or a fresh Add result no other value holds —
// because Poly values are otherwise immutable and may share tables.
// Coefficients are exactly those of p.Add(q).
func (p *Poly) AddInPlace(q Poly) {
	if len(q.terms) == 0 {
		return
	}
	if p.terms == nil {
		p.terms = make(map[string]polyTerm, len(q.terms))
	}
	for k, t := range q.terms {
		addInto(p.terms, k, t.coeff, t.mono)
	}
}

// Sub returns p − q.
func (p Poly) Sub(q Poly) Poly {
	if len(q.terms) == 0 {
		return p.clone()
	}
	out := p.cloneExtra(len(q.terms))
	for k, t := range q.terms {
		addInto(out.terms, k, -t.coeff, t.mono)
	}
	return out
}

// Scale returns c·p. Scaling never changes monomials, so keys are
// copied verbatim.
func (p Poly) Scale(c float64) Poly {
	if len(p.terms) == 0 || math.Abs(c) < coeffEps {
		return Poly{}
	}
	out := Poly{terms: make(map[string]polyTerm, len(p.terms))}
	for k, t := range p.terms {
		if sc := c * t.coeff; math.Abs(sc) >= coeffEps {
			out.terms[k] = polyTerm{sc, t.mono}
		}
	}
	return out
}

// Neg returns −p.
func (p Poly) Neg() Poly { return p.Scale(-1) }

// AddConst returns p + c.
func (p Poly) AddConst(c float64) Poly {
	out := p.cloneExtra(1)
	addInto(out.terms, "", c, Monomial{})
	return out
}

// Mul returns p·q.
func (p Poly) Mul(q Poly) Poly {
	if len(p.terms) == 0 || len(q.terms) == 0 {
		return Poly{}
	}
	out := Poly{terms: make(map[string]polyTerm, len(p.terms)*len(q.terms))}
	sc := keyScratchPool.Get().(*keyScratch)
	for _, a := range p.terms {
		for kb, b := range q.terms {
			coeff := a.coeff * b.coeff
			if math.Abs(coeff) < coeffEps {
				continue
			}
			if len(a.mono) == 0 {
				addInto(out.terms, kb, coeff, b.mono)
				continue
			}
			// Merge the two monomials into scratch, key the result,
			// and only materialize a Monomial map when the term is new.
			ves := appendVE(sc.ves[:0], a.mono)
			for v, e := range b.mono {
				if e == 0 {
					continue
				}
				found := false
				for i := range ves {
					if ves[i].v == v {
						ves[i].e += e
						found = true
						break
					}
				}
				if !found {
					ves = append(ves, ve{v, e})
				}
			}
			n := 0
			for _, x := range ves {
				if x.e != 0 {
					ves[n] = x
					n++
				}
			}
			ves = ves[:n]
			// Re-sort: merging may have appended b's vars out of order.
			for i := 1; i < len(ves); i++ {
				for j := i; j > 0 && ves[j].v < ves[j-1].v; j-- {
					ves[j], ves[j-1] = ves[j-1], ves[j]
				}
			}
			sc.ves = ves
			buf := appendKey(sc.buf[:0], ves)
			sc.buf = buf
			key := intern(buf)
			if t, ok := out.terms[key]; ok {
				c := t.coeff + coeff
				if math.Abs(c) < coeffEps {
					delete(out.terms, key)
				} else {
					out.terms[key] = polyTerm{c, t.mono}
				}
				continue
			}
			m := make(Monomial, len(ves))
			for _, x := range ves {
				m[x.v] = x.e
			}
			out.terms[key] = polyTerm{coeff, m}
		}
	}
	keyScratchPool.Put(sc)
	return out
}

// MulVar returns p · v^exp.
func (p Poly) MulVar(v Var, exp int) Poly {
	if exp == 0 {
		return p.clone()
	}
	out := Poly{terms: make(map[string]polyTerm, len(p.terms))}
	for _, t := range p.terms {
		m := t.mono.clone()
		m[v] += exp
		if m[v] == 0 {
			delete(m, v)
		}
		addInto(out.terms, m.key(), t.coeff, m)
	}
	return out
}

// Pow returns p^n for n ≥ 0.
func (p Poly) Pow(n int) Poly {
	if n < 0 {
		panic("symexpr: Pow with negative exponent")
	}
	out := Const(1)
	base := p
	for n > 0 {
		if n&1 == 1 {
			out = out.Mul(base)
		}
		base = base.Mul(base)
		n >>= 1
	}
	return out
}

// Vars returns the variables appearing in p, sorted.
func (p Poly) Vars() []Var {
	seen := map[Var]bool{}
	for _, t := range p.terms {
		for v, e := range t.mono {
			if e != 0 {
				seen[v] = true
			}
		}
	}
	out := make([]Var, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Degree returns the highest exponent of v in p (0 if v absent),
// considering only positive exponents. MinDegree gives the most
// negative exponent.
func (p Poly) Degree(v Var) int {
	d := 0
	for _, t := range p.terms {
		if e := t.mono.degree(v); e > d {
			d = e
		}
	}
	return d
}

// MinDegree returns the most negative exponent of v in p (0 if none).
func (p Poly) MinDegree(v Var) int {
	d := 0
	for _, t := range p.terms {
		if e := t.mono.degree(v); e < d {
			d = e
		}
	}
	return d
}

// IsPolynomialIn reports whether no term has a negative exponent of v.
func (p Poly) IsPolynomialIn(v Var) bool { return p.MinDegree(v) == 0 }

// Eval evaluates p with the given variable assignment. Variables absent
// from the assignment cause an error.
func (p Poly) Eval(assign map[Var]float64) (float64, error) {
	sum := 0.0
	for _, t := range p.terms {
		val := t.coeff
		for v, e := range t.mono {
			x, ok := assign[v]
			if !ok {
				return 0, fmt.Errorf("symexpr: unbound variable %q", v)
			}
			if e < 0 && x == 0 {
				return 0, fmt.Errorf("symexpr: division by zero evaluating %q^%d", v, e)
			}
			val *= math.Pow(x, float64(e))
		}
		sum += val
	}
	return sum, nil
}

// MustEval is Eval that panics on error; for tests and internal use on
// fully-bound expressions.
func (p Poly) MustEval(assign map[Var]float64) float64 {
	v, err := p.Eval(assign)
	if err != nil {
		panic(err)
	}
	return v
}

// Substitute replaces v by the polynomial q in p. All exponents of v
// must be non-negative unless q is a nonzero constant.
func (p Poly) Substitute(v Var, q Poly) (Poly, error) {
	if c, ok := q.IsConst(); ok {
		return p.substConst(v, c)
	}
	out := Poly{}
	for _, t := range p.terms {
		e := t.mono.degree(v)
		if e < 0 {
			return Poly{}, fmt.Errorf("symexpr: cannot substitute polynomial into negative power %s^%d", v, e)
		}
		rest := t.mono.clone()
		delete(rest, v)
		piece := Term(t.coeff, rest)
		if e > 0 {
			piece = piece.Mul(q.Pow(e))
		}
		out = out.Add(piece)
	}
	return out, nil
}

func (p Poly) substConst(v Var, c float64) (Poly, error) {
	out := Poly{terms: make(map[string]polyTerm, len(p.terms))}
	for k, t := range p.terms {
		e := t.mono.degree(v)
		if e < 0 && c == 0 {
			return Poly{}, fmt.Errorf("symexpr: substituting 0 into negative power of %s", v)
		}
		if e == 0 {
			addInto(out.terms, k, t.coeff, t.mono)
			continue
		}
		rest := t.mono.clone()
		delete(rest, v)
		addInto(out.terms, rest.key(), t.coeff*math.Pow(c, float64(e)), rest)
	}
	return out, nil
}

// MustSubstitute is Substitute that panics on error.
func (p Poly) MustSubstitute(v Var, q Poly) Poly {
	r, err := p.Substitute(v, q)
	if err != nil {
		panic(err)
	}
	return r
}

// Coeffs returns, for a polynomial that is univariate in v (all other
// variables must be absent), the dense coefficient slice c[0..deg] such
// that p = Σ c[i]·v^i. It errors if p has other variables or negative
// powers of v.
func (p Poly) Coeffs(v Var) ([]float64, error) {
	deg := p.Degree(v)
	out := make([]float64, deg+1)
	for _, t := range p.terms {
		e := 0
		for tv, te := range t.mono {
			if tv == v {
				e = te
				continue
			}
			if te != 0 {
				return nil, fmt.Errorf("symexpr: polynomial is not univariate in %q (contains %q)", v, tv)
			}
		}
		if e < 0 {
			return nil, fmt.Errorf("symexpr: negative power %s^%d", v, e)
		}
		out[e] += t.coeff
	}
	return out, nil
}

// CoeffOf returns the sub-polynomial multiplying v^exp.
func (p Poly) CoeffOf(v Var, exp int) Poly {
	out := Poly{terms: map[string]polyTerm{}}
	for _, t := range p.terms {
		if t.mono.degree(v) != exp {
			continue
		}
		rest := t.mono.clone()
		delete(rest, v)
		addInto(out.terms, rest.key(), t.coeff, rest)
	}
	return out
}

// Derivative returns ∂p/∂v.
func (p Poly) Derivative(v Var) Poly {
	out := Poly{terms: map[string]polyTerm{}}
	for _, t := range p.terms {
		e := t.mono.degree(v)
		if e == 0 {
			continue
		}
		m := t.mono.clone()
		m[v] = e - 1
		if m[v] == 0 {
			delete(m, v)
		}
		addInto(out.terms, m.key(), t.coeff*float64(e), m)
	}
	return out
}

// Equal reports whether p and q agree within tol on every coefficient.
func (p Poly) Equal(q Poly, tol float64) bool {
	d := p.Sub(q)
	for _, t := range d.terms {
		if math.Abs(t.coeff) > tol {
			return false
		}
	}
	return true
}

// String renders p in a stable, human-readable form, e.g.
// "3n^2 + 2n·k − 4 + 1/k".
func (p Poly) String() string {
	if len(p.terms) == 0 {
		return "0"
	}
	type st struct {
		key  string
		td   int
		term polyTerm
	}
	list := make([]st, 0, len(p.terms))
	for k, t := range p.terms {
		list = append(list, st{k, t.mono.totalDegree(), t})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].td != list[j].td {
			return list[i].td > list[j].td
		}
		return list[i].key < list[j].key
	})
	var b strings.Builder
	for i, s := range list {
		c := s.term.coeff
		if i == 0 {
			if c < 0 {
				b.WriteString("-")
				c = -c
			}
		} else {
			if c < 0 {
				b.WriteString(" - ")
				c = -c
			} else {
				b.WriteString(" + ")
			}
		}
		monoStr := monoString(s.term.mono)
		switch {
		case monoStr == "":
			fmt.Fprintf(&b, "%s", fmtCoeff(c))
		case math.Abs(c-1) < coeffEps:
			b.WriteString(monoStr)
		default:
			fmt.Fprintf(&b, "%s·%s", fmtCoeff(c), monoStr)
		}
	}
	return b.String()
}

func fmtCoeff(c float64) string {
	if c == math.Trunc(c) && math.Abs(c) < 1e15 {
		return fmt.Sprintf("%d", int64(c))
	}
	return fmt.Sprintf("%g", c)
}

func monoString(m Monomial) string {
	if len(m) == 0 {
		return ""
	}
	type ve struct {
		v Var
		e int
	}
	list := make([]ve, 0, len(m))
	for v, e := range m {
		if e != 0 {
			list = append(list, ve{v, e})
		}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].v < list[j].v })
	parts := make([]string, 0, len(list))
	for _, x := range list {
		switch {
		case x.e == 1:
			parts = append(parts, string(x.v))
		case x.e > 1:
			parts = append(parts, fmt.Sprintf("%s^%d", x.v, x.e))
		default:
			parts = append(parts, fmt.Sprintf("%s^(%d)", x.v, x.e))
		}
	}
	return strings.Join(parts, "·")
}

// Terms returns the terms of p as (coefficient, monomial) pairs in the
// stable order used by String.
func (p Poly) Terms() []struct {
	Coeff float64
	Mono  Monomial
} {
	keys := make([]string, 0, len(p.terms))
	for k := range p.terms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]struct {
		Coeff float64
		Mono  Monomial
	}, 0, len(keys))
	for _, k := range keys {
		t := p.terms[k]
		out = append(out, struct {
			Coeff float64
			Mono  Monomial
		}{t.coeff, t.mono.clone()})
	}
	return out
}
