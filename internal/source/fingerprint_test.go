package source

import "testing"

// Formatting variants of the same program: extra blank lines, comment
// lines, different spacing around operators and commas, and mixed
// case-insensitive keywords where the lexer normalizes them.
const fpBase = `
program p
  integer i, n
  parameter (n = 64)
  real a(64), b(64)
  do i = 1, n
    a(i) = a(i) + 2.0 * b(i)
  end do
end
`

const fpReformatted = `
program p


  integer i, n
  parameter (n   =   64)
  real a(64), b(64)
  do i = 1,   n
    a( i ) = a(i)+2.0*b( i )
  end do
end
`

// fpOneStmtOff differs from fpBase in exactly one statement (the
// coefficient 2.0 became 3.0).
const fpOneStmtOff = `
program p
  integer i, n
  parameter (n = 64)
  real a(64), b(64)
  do i = 1, n
    a(i) = a(i) + 3.0 * b(i)
  end do
end
`

func fpMustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestFingerprintIgnoresFormatting(t *testing.T) {
	a := fpMustParse(t, fpBase)
	b := fpMustParse(t, fpReformatted)
	if FingerprintProgram(a) != FingerprintProgram(b) {
		t.Errorf("formatting changed the program fingerprint:\n%v\n%v",
			FingerprintProgram(a), FingerprintProgram(b))
	}
	if FingerprintStmts(a.Body) != FingerprintStmts(b.Body) {
		t.Error("formatting changed the body fingerprint")
	}
	if FingerprintEnv(a) != FingerprintEnv(b) {
		t.Error("formatting changed the env fingerprint")
	}
}

func TestFingerprintPrintRoundTrip(t *testing.T) {
	a := fpMustParse(t, fpBase)
	b := fpMustParse(t, PrintProgram(a))
	if FingerprintProgram(a) != FingerprintProgram(b) {
		t.Error("print/re-parse changed the fingerprint")
	}
}

func TestFingerprintSeesOneStatementChange(t *testing.T) {
	a := fpMustParse(t, fpBase)
	b := fpMustParse(t, fpOneStmtOff)
	if FingerprintProgram(a) == FingerprintProgram(b) {
		t.Error("one-statement difference not reflected in program fingerprint")
	}
	if FingerprintStmt(a.Body[0]) == FingerprintStmt(b.Body[0]) {
		t.Error("one-statement difference not reflected in statement fingerprint")
	}
	// The environments are identical, only the body differs.
	if FingerprintEnv(a) != FingerprintEnv(b) {
		t.Error("identical environments hash differently")
	}
}

func TestFingerprintDistinguishesNodeKinds(t *testing.T) {
	// x vs x(1): a VarRef and an ArrayRef over the same name.
	v := &VarRef{Name: "x"}
	ar := &ArrayRef{Name: "x", Idx: []Expr{&NumLit{Value: 1}}}
	sa := FingerprintStmt(&Assign{LHS: v, RHS: &NumLit{Value: 0}})
	sb := FingerprintStmt(&Assign{LHS: ar, RHS: &NumLit{Value: 0}})
	if sa == sb {
		t.Error("VarRef and ArrayRef hash equal")
	}
	// 2 vs 2.0: integer and real literals with the same value.
	ia := FingerprintStmt(&Assign{LHS: v, RHS: &NumLit{Value: 2}})
	ib := FingerprintStmt(&Assign{LHS: v, RHS: &NumLit{Value: 2, IsReal: true}})
	if ia == ib {
		t.Error("integer and real literals hash equal")
	}
	// A missing step vs an explicit step of 1 are distinct trees.
	la := FingerprintStmt(&DoLoop{Var: "i", Lb: &NumLit{Value: 1}, Ub: v})
	lb := FingerprintStmt(&DoLoop{Var: "i", Lb: &NumLit{Value: 1}, Ub: v, Step: &NumLit{Value: 1}})
	if la == lb {
		t.Error("nil step and explicit step hash equal")
	}
}

func TestFingerprintPositionsExcluded(t *testing.T) {
	a := fpMustParse(t, fpBase)
	// Shift every position by re-parsing with a leading comment block.
	b := fpMustParse(t, "! header comment\n! another line\n"+fpBase)
	if FingerprintProgram(a) != FingerprintProgram(b) {
		t.Error("source positions leaked into the fingerprint")
	}
}

func TestFingerprintEnvFor(t *testing.T) {
	a := fpMustParse(t, fpBase)
	// Same program with an extra, unreferenced declaration (what tiling
	// does when it declares i_t).
	withDecl := fpMustParse(t, `
program p
  integer i, n, i_t
  parameter (n = 64)
  real a(64), b(64)
  do i = 1, n
    a(i) = a(i) + 2.0 * b(i)
  end do
end
`)
	names := map[string]bool{}
	StmtNames(a.Body[0], names)
	if !names["i"] || !names["a"] || !names["b"] || !names["n"] {
		t.Fatalf("StmtNames missed identifiers: %v", names)
	}
	if FingerprintEnvFor(a, names) != FingerprintEnvFor(withDecl, names) {
		t.Error("unreferenced declaration changed the filtered env fingerprint")
	}
	if FingerprintEnv(a) == FingerprintEnv(withDecl) {
		t.Error("full env fingerprint missed the extra declaration")
	}
	// Changing the type of a referenced name must change the key.
	retyped := fpMustParse(t, `
program p
  real i, n
  parameter (n = 64)
  real a(64), b(64)
  do i = 1, n
    a(i) = a(i) + 2.0 * b(i)
  end do
end
`)
	if FingerprintEnvFor(a, names) == FingerprintEnvFor(retyped, names) {
		t.Error("referenced declaration type change not reflected in filtered env fingerprint")
	}
}

// TestFingerprintExpr: an expression hashes the same wherever its tree
// came from, differs on any operand or operator, and is not confused
// with the statement that contains it.
func TestFingerprintExpr(t *testing.T) {
	a := fpMustParse(t, fpBase)
	b := fpMustParse(t, fpReformatted)
	la, lb := a.Body[0].(*DoLoop), b.Body[0].(*DoLoop)
	if FingerprintExpr(la.Ub) != FingerprintExpr(lb.Ub) {
		t.Error("formatting changed a bound's fingerprint")
	}
	n := &VarRef{Name: "n"}
	plus := &BinExpr{Kind: BinAdd, L: n, R: &NumLit{Value: 1}}
	minus := &BinExpr{Kind: BinSub, L: n, R: &NumLit{Value: 1}}
	if FingerprintExpr(plus) == FingerprintExpr(minus) {
		t.Error("n+1 and n-1 hash equal")
	}
	if FingerprintExpr(n) == FingerprintExpr(&VarRef{Name: "m"}) {
		t.Error("distinct names hash equal")
	}
	if FingerprintExpr(nil) == FingerprintExpr(&NumLit{Value: 0}) {
		t.Error("nil and a literal hash equal")
	}
	asg := &Assign{LHS: n, RHS: plus}
	if FingerprintExpr(plus) == FingerprintStmt(asg) {
		t.Error("an expression hashes like the statement holding it")
	}
}
