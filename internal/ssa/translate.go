package ssa

import (
	"orchestra/internal/source"
	"orchestra/internal/symbolic"
)

// TranslateExpr converts a source expression into a linear symbolic
// expression at a program point described by env. Scalar references are
// resolved to their reaching SSA definitions, and definitions with known
// linear values are inlined (definitions store fully expanded values, so
// one level of lookup suffices). Expressions outside the linear domain
// — array references, function calls, real literals, division, and
// non-constant products — report ok=false.
func (in *Info) TranslateExpr(e source.Expr, env Env) (symbolic.Expr, bool) {
	switch e := e.(type) {
	case *source.Num:
		if e.IsReal {
			return symbolic.Expr{}, false
		}
		return symbolic.Const(e.Int), true
	case *source.Ident:
		name, ok := env.Lookup(e.Name)
		if !ok {
			// Unknown identifier (e.g. never assigned): treat the bare
			// variable name as an opaque symbol.
			return symbolic.Var(symbolic.Name(e.Name)), true
		}
		if d := in.Defs[name]; d != nil && d.HasValue {
			return d.Value, true
		}
		return symbolic.Var(name), true
	case *source.Un:
		if e.Op != "-" {
			return symbolic.Expr{}, false
		}
		x, ok := in.TranslateExpr(e.X, env)
		if !ok {
			return symbolic.Expr{}, false
		}
		return x.Neg(), true
	case *source.Bin:
		l, okL := in.TranslateExpr(e.L, env)
		r, okR := in.TranslateExpr(e.R, env)
		if !okL || !okR {
			return symbolic.Expr{}, false
		}
		switch e.Op {
		case "+":
			return l.Add(r), true
		case "-":
			return l.Sub(r), true
		case "*":
			if c, ok := l.IsConst(); ok {
				return r.Scale(c), true
			}
			if c, ok := r.IsConst(); ok {
				return l.Scale(c), true
			}
			return symbolic.Expr{}, false
		case "/":
			// Exact constant division only.
			lc, okl := l.IsConst()
			rc, okr := r.IsConst()
			if okl && okr && rc != 0 && lc%rc == 0 {
				return symbolic.Const(lc / rc), true
			}
			return symbolic.Expr{}, false
		}
		return symbolic.Expr{}, false
	}
	return symbolic.Expr{}, false
}

// TranslateAtom converts an expression to a predicate atom: a linear
// expression or an array element reference with linear indices.
func (in *Info) TranslateAtom(e source.Expr, env Env) (symbolic.Atom, bool) {
	if x, ok := in.TranslateExpr(e, env); ok {
		return symbolic.ExprAtom(x), true
	}
	if ar, ok := e.(*source.ArrayRef); ok {
		idx := make([]symbolic.Expr, len(ar.Index))
		for i, ie := range ar.Index {
			x, ok := in.TranslateExpr(ie, env)
			if !ok {
				return symbolic.Atom{}, false
			}
			idx[i] = x
		}
		return symbolic.ElemAtom(symbolic.Name(ar.Name), idx...), true
	}
	return symbolic.Atom{}, false
}

// cmpOps maps source comparison operators to symbolic ones.
var cmpOps = map[string]symbolic.CmpOp{
	"==": symbolic.EQ,
	"!=": symbolic.NE,
	"<":  symbolic.LT,
	"<=": symbolic.LE,
	">":  symbolic.GT,
	">=": symbolic.GE,
}

// TranslatePred converts a boolean source expression into a conjunction
// of predicates. Conjunctions (&&) merge; disjunctions and anything
// else untranslatable report ok=false, and callers must treat the
// condition as opaque (may be true or false).
func (in *Info) TranslatePred(e source.Expr, env Env) (symbolic.Conj, bool) {
	switch e := e.(type) {
	case *source.Bin:
		if e.Op == "&&" {
			l, okL := in.TranslatePred(e.L, env)
			r, okR := in.TranslatePred(e.R, env)
			if !okL || !okR {
				return nil, false
			}
			return l.Merge(r), true
		}
		op, isCmp := cmpOps[e.Op]
		if !isCmp {
			return nil, false
		}
		l, okL := in.TranslateAtom(e.L, env)
		r, okR := in.TranslateAtom(e.R, env)
		if !okL || !okR {
			return nil, false
		}
		return symbolic.Conj{symbolic.NewPred(l, op, r)}, true
	}
	return nil, false
}
