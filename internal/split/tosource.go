package split

import (
	"sort"
	"strings"

	"orchestra/internal/analysis"
	"orchestra/internal/source"
	"orchestra/internal/symbolic"
)

// exprToSource converts a linear symbolic expression back to source
// syntax, mapping each SSA name to its program variable. It refuses
// names whose variable is synthetic (internal opaque temporaries).
func exprToSource(r *analysis.Result, e symbolic.Expr) (source.Expr, bool) {
	var out source.Expr
	names := e.Names()
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	for _, n := range names {
		v, ok := varOf(r, n)
		if !ok {
			return nil, false
		}
		coef := e.Coef(n)
		var term source.Expr = &source.Ident{Name: v}
		if coef != 1 && coef != -1 {
			term = &source.Bin{Op: "*", L: &source.Num{Int: abs64(coef)}, R: term}
		}
		switch {
		case out == nil && coef < 0:
			out = &source.Un{Op: "-", X: term}
		case out == nil:
			out = term
		case coef < 0:
			out = &source.Bin{Op: "-", L: out, R: term}
		default:
			out = &source.Bin{Op: "+", L: out, R: term}
		}
	}
	c := e.ConstPart()
	switch {
	case out == nil:
		out = &source.Num{Int: c}
	case c > 0:
		out = &source.Bin{Op: "+", L: out, R: &source.Num{Int: c}}
	case c < 0:
		out = &source.Bin{Op: "-", L: out, R: &source.Num{Int: -c}}
	}
	return out, true
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// varOf maps an SSA name to its source variable name.
func varOf(r *analysis.Result, n symbolic.Name) (string, bool) {
	if d := r.SSA.Defs[n]; d != nil {
		if strings.HasPrefix(d.Var, "$") {
			return "", false
		}
		return d.Var, true
	}
	// Names without definitions are bare program identifiers (the
	// translator emits these for never-assigned variables).
	s := string(n)
	if s == "" || strings.ContainsAny(s, ".$*'") {
		return "", false
	}
	return s, true
}

// cmpToSourceOp maps a symbolic comparison to source syntax.
var cmpToSourceOp = map[symbolic.CmpOp]string{
	symbolic.EQ: "==",
	symbolic.NE: "!=",
	symbolic.LT: "<",
	symbolic.LE: "<=",
	symbolic.GT: ">",
	symbolic.GE: ">=",
}

// atomToSource converts a predicate atom to source syntax.
func atomToSource(r *analysis.Result, a symbolic.Atom) (source.Expr, bool) {
	if !a.IsElem() {
		return exprToSource(r, a.E)
	}
	ref := &source.ArrayRef{Name: string(a.Array)}
	for _, ix := range a.Index {
		x, ok := exprToSource(r, ix)
		if !ok {
			return nil, false
		}
		ref.Index = append(ref.Index, x)
	}
	return ref, true
}

// predToSource converts a predicate to a boolean source expression.
func predToSource(r *analysis.Result, p symbolic.Pred) (source.Expr, bool) {
	l, okL := atomToSource(r, p.Lhs)
	rhs, okR := atomToSource(r, p.Rhs)
	if !okL || !okR {
		return nil, false
	}
	return &source.Bin{Op: cmpToSourceOp[p.Op], L: l, R: rhs}, true
}

// andWhere conjoins an extra condition onto a loop's where clause.
func andWhere(existing, extra source.Expr) source.Expr {
	if existing == nil {
		return extra
	}
	return &source.Bin{Op: "&&", L: source.CloneExpr(existing), R: extra}
}

// renameBlock rewrites every reference to array `from` into `to`
// throughout a statement list (used for reduction replication and
// privatization). The statements must already be private clones.
func renameBlock(ss []source.Stmt, from, to string) {
	var fixExpr func(e source.Expr)
	fixExpr = func(e source.Expr) {
		source.WalkExpr(e, func(x source.Expr) {
			switch x := x.(type) {
			case *source.ArrayRef:
				if x.Name == from {
					x.Name = to
				}
			case *source.Ident:
				if x.Name == from {
					x.Name = to
				}
			}
		})
	}
	source.WalkStmts(ss, func(s source.Stmt) {
		switch s := s.(type) {
		case *source.Assign:
			fixExpr(s.LHS)
			fixExpr(s.RHS)
		case *source.Do:
			for _, rg := range s.Ranges {
				fixExpr(rg.Lo)
				fixExpr(rg.Hi)
				fixExpr(rg.Step)
			}
			fixExpr(s.Where)
		case *source.If:
			fixExpr(s.Cond)
		case *source.CallStmt:
			for _, a := range s.Args {
				fixExpr(a)
			}
		}
	})
}
