package source

import (
	"fmt"
	"strings"
)

// PrintProgram renders a program back to F-lite source. The output
// re-parses to an equivalent AST (round-trip property tested), which
// the transformation engine relies on for debugging and the examples
// use to show restructured programs.
func PrintProgram(p *Program) string {
	var b strings.Builder
	if len(p.Params) > 0 {
		fmt.Fprintf(&b, "subroutine %s(%s)\n", p.Name, strings.Join(p.Params, ", "))
	} else {
		fmt.Fprintf(&b, "program %s\n", p.Name)
	}
	for _, d := range p.Decls {
		names := make([]string, len(d.Names))
		for i, n := range d.Names {
			if len(n.Dims) == 0 {
				names[i] = n.Name
				continue
			}
			dims := make([]string, len(n.Dims))
			for j, dim := range n.Dims {
				dims[j] = ExprString(dim)
			}
			names[i] = fmt.Sprintf("%s(%s)", n.Name, strings.Join(dims, ","))
		}
		fmt.Fprintf(&b, "  %s %s\n", d.Type, strings.Join(names, ", "))
	}
	for _, c := range p.Consts {
		fmt.Fprintf(&b, "  parameter (%s = %s)\n", c.Name, ExprString(c.Value))
	}
	for _, d := range p.Dists {
		fmt.Fprintf(&b, "!hpf$ distribute %s(%s)\n", d.Array, strings.Join(d.Pattern, ", "))
	}
	printStmts(&b, p.Body, 1)
	b.WriteString("end\n")
	return b.String()
}

// StmtsString renders a statement list in source form, without the
// enclosing program lines.
func StmtsString(stmts []Stmt) string {
	var b strings.Builder
	printStmts(&b, stmts, 0)
	return b.String()
}

func printStmts(b *strings.Builder, stmts []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range stmts {
		switch x := s.(type) {
		case *Assign:
			fmt.Fprintf(b, "%s%s = %s\n", ind, ExprString(x.LHS), ExprString(x.RHS))
		case *DoLoop:
			if x.Step != nil {
				fmt.Fprintf(b, "%sdo %s = %s, %s, %s\n", ind, x.Var, ExprString(x.Lb), ExprString(x.Ub), ExprString(x.Step))
			} else {
				fmt.Fprintf(b, "%sdo %s = %s, %s\n", ind, x.Var, ExprString(x.Lb), ExprString(x.Ub))
			}
			printStmts(b, x.Body, depth+1)
			fmt.Fprintf(b, "%send do\n", ind)
		case *IfStmt:
			fmt.Fprintf(b, "%sif (%s) then\n", ind, ExprString(x.Cond))
			printStmts(b, x.Then, depth+1)
			if x.Else != nil {
				fmt.Fprintf(b, "%selse\n", ind)
				printStmts(b, x.Else, depth+1)
			}
			fmt.Fprintf(b, "%send if\n", ind)
		case *CallStmt:
			args := make([]string, len(x.Args))
			for i, a := range x.Args {
				args[i] = ExprString(a)
			}
			fmt.Fprintf(b, "%scall %s(%s)\n", ind, x.Name, strings.Join(args, ", "))
		case *ContinueStmt:
			fmt.Fprintf(b, "%scontinue\n", ind)
		case *ReturnStmt:
			fmt.Fprintf(b, "%sreturn\n", ind)
		}
	}
}
