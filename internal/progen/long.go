package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Long-program shapes: valid F-lite whose size is a parameter, for
// tests that check pricing work grows linearly with program length.
// Every statement carries its own subscripts and constant, so no two
// segments coincide and no cache can hide a superlinear path.

// longArray is the extent of the four arrays the long shapes use.
const longArray = 4096

// longDecls declares the arrays a..d and the scalars s0..s7.
func longDecls(sb *strings.Builder) {
	fmt.Fprintf(sb, "  real a(%d), b(%d), c(%d), d(%d)\n", longArray, longArray, longArray, longArray)
	sb.WriteString("  real s0, s1, s2, s3, s4, s5, s6, s7\n")
}

// longStmt renders assignment k. With a loop variable v, array
// subscripts are v plus an offset below longArray-span.
func longStmt(r *rand.Rand, k int, v string, span int) string {
	ref := func() string {
		arr := pick(r, []string{"a", "b", "c", "d"})
		if v == "" {
			return fmt.Sprintf("%s(%d)", arr, 1+r.Intn(longArray))
		}
		return fmt.Sprintf("%s(%s+%d)", arr, v, r.Intn(longArray-span))
	}
	scalar := func() string { return fmt.Sprintf("s%d", r.Intn(8)) }
	lit := fmt.Sprintf("%d.%d", 1+r.Intn(9), k%1000)
	switch r.Intn(3) {
	case 0:
		return fmt.Sprintf("%s = %s * %s + %s", ref(), ref(), ref(), lit)
	case 1:
		return fmt.Sprintf("%s = %s + %s * %s", scalar(), scalar(), ref(), lit)
	default:
		return fmt.Sprintf("%s = (%s + %s) * (%s - %s)", ref(), ref(), ref(), scalar(), lit)
	}
}

// GenLongStraight returns a program whose body is one straight-line
// run of n assignments.
func GenLongStraight(r *rand.Rand, n int) string {
	var sb strings.Builder
	sb.WriteString("program longs\n")
	longDecls(&sb)
	for k := 0; k < n; k++ {
		fmt.Fprintf(&sb, "  %s\n", longStmt(r, k, "", 0))
	}
	sb.WriteString("end\n")
	return sb.String()
}

// GenGuardedLoops returns a subroutine of n consecutive loops over the
// unknown bound n, each holding one guarded assignment. Even loops test
// data (one branch-probability unknown each, so the running cost
// polynomial grows with n); odd loops test the loop index (a
// restricted sum).
func GenGuardedLoops(r *rand.Rand, n int) string {
	const span = 100
	var sb strings.Builder
	sb.WriteString("subroutine longl(n)\n  integer i, n\n")
	longDecls(&sb)
	for k := 0; k < n; k++ {
		sb.WriteString("  do i = 1, n\n")
		if k%2 == 0 {
			fmt.Fprintf(&sb, "    if (b(i+%d) .gt. %d.%d) then\n", r.Intn(span), r.Intn(9), k%1000)
		} else {
			fmt.Fprintf(&sb, "    if (i .le. %d) then\n", 1+r.Intn(span))
		}
		fmt.Fprintf(&sb, "      %s\n    end if\n  end do\n", longStmt(r, k, "i", span))
	}
	sb.WriteString("end\n")
	return sb.String()
}
