package main

import (
	"fmt"
	"math/rand"
	"strings"

	"perfpredict/internal/source"
)

// Long-input generators. Both shapes are valid F-lite whose every
// statement differs from every other (distinct subscripts and
// constants), so no segment repeats and a segment cache cannot help.
// The seed picks the statements; the size fixes how many.

const longArray = 8192

// genStraight returns a program whose body is one straight-line run of
// n assignments over four arrays and eight scalars.
func genStraight(rng *rand.Rand, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program longs\n  real a(%d), b(%d), c(%d), d(%d), s0, s1, s2, s3, s4, s5, s6, s7\n",
		longArray, longArray, longArray, longArray)
	for i := 0; i < n; i++ {
		sb.WriteString("  ")
		sb.WriteString(straightStmt(rng, i, "", 0))
		sb.WriteByte('\n')
	}
	sb.WriteString("end\n")
	return sb.String()
}

// straightStmt renders one assignment. Inside a loop (loopVar set),
// array subscripts are offsets of the loop variable.
func straightStmt(rng *rand.Rand, i int, loopVar string, span int) string {
	arr := []string{"a", "b", "c", "d"}
	ref := func() string {
		name := arr[rng.Intn(len(arr))]
		if loopVar == "" {
			return fmt.Sprintf("%s(%d)", name, 1+rng.Intn(longArray))
		}
		return fmt.Sprintf("%s(%s+%d)", name, loopVar, rng.Intn(longArray-span))
	}
	scalar := func() string { return fmt.Sprintf("s%d", rng.Intn(8)) }
	k := fmt.Sprintf("%d.%d", 1+rng.Intn(9), i%1000)
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("%s = %s * %s + %s", ref(), ref(), ref(), k)
	case 1:
		return fmt.Sprintf("%s = %s + %s * %s", scalar(), scalar(), ref(), k)
	case 2:
		return fmt.Sprintf("%s = abs(%s) + %s - %s", ref(), ref(), scalar(), k)
	default:
		return fmt.Sprintf("%s = (%s + %s) * (%s - %s)", ref(), ref(), ref(), scalar(), k)
	}
}

// genLoops returns a subroutine of n consecutive guarded loops over
// the unknown bound n. Even loops guard on the data (each guard adds a
// branch-probability unknown to the cost), odd loops on the loop index
// (a restricted sum); the running cost polynomial grows with n.
func genLoops(rng *rand.Rand, n int) string {
	const span = 200
	var sb strings.Builder
	fmt.Fprintf(&sb, "subroutine longl(n)\n  integer i, n\n  real a(%d), b(%d), c(%d), d(%d), s0, s1, s2, s3, s4, s5, s6, s7\n",
		longArray, longArray, longArray, longArray)
	for i := 0; i < n; i++ {
		sb.WriteString("  do i = 1, n\n")
		if i%2 == 0 {
			fmt.Fprintf(&sb, "    if (a(i+%d) .gt. %d.%d) then\n", rng.Intn(span), rng.Intn(9), i%1000)
		} else {
			fmt.Fprintf(&sb, "    if (i .le. %d) then\n", 1+rng.Intn(span))
		}
		fmt.Fprintf(&sb, "      %s\n", straightStmt(rng, i, "i", span))
		sb.WriteString("    end if\n  end do\n")
	}
	sb.WriteString("end\n")
	return sb.String()
}

// shape counts the statements (every node of the statement tree) and
// DO loops of parsed programs.
func shape(srcs ...string) (stmts, loops int, err error) {
	var walk func(list []source.Stmt)
	walk = func(list []source.Stmt) {
		for _, s := range list {
			stmts++
			switch x := s.(type) {
			case *source.DoLoop:
				loops++
				walk(x.Body)
			case *source.IfStmt:
				walk(x.Then)
				walk(x.Else)
			}
		}
	}
	for _, src := range srcs {
		p, err := source.Parse(src)
		if err != nil {
			return 0, 0, err
		}
		walk(p.Body)
	}
	return stmts, loops, nil
}
