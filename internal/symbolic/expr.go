// Package symbolic implements the symbolic value domain of the paper's
// analysis (§3.1): linear symbolic expressions over SSA names, ranges
// with symbolic endpoints and integer skip, inequalities, and assertions
// (disjunctions of conjunctions of inequalities). A small conservative
// prover answers the disjointness and equality questions that the
// descriptor-interference test and the split transformation ask.
//
// The paper limits a symbolic expression to "a sum that may include a
// set of SSA names, each with an integer coefficient, and a constant";
// Expr implements exactly that domain. Every operation is total:
// expressions outside the domain are represented by introducing an
// opaque fresh name, which keeps the analysis conservative.
package symbolic

import (
	"strconv"
	"strings"
)

// Name identifies an SSA name. Names are opaque to this package; the
// SSA construction guarantees each has a single defining value.
type Name string

// term is one coef*name summand.
type term struct {
	name Name
	coef int64
}

// Expr is a linear symbolic expression: a constant plus a sum of SSA
// names with integer coefficients. The zero value is the constant 0.
//
// The summands are a slice sorted by name with no zero coefficient, so
// equal expressions have equal slices and every binary operation is one
// merge. A term slice is never written after the operation that built
// it returns, which is what lets operations that leave the summands
// alone (AddConst, Scale(1), adding a constant) hand the same slice to
// their result: Expr values are immutable, and all operations return
// new expressions.
type Expr struct {
	konst int64
	terms []term
}

// Const returns the constant expression c.
func Const(c int64) Expr { return Expr{konst: c} }

// Var returns the expression consisting of the single name n.
func Var(n Name) Expr { return Term(n, 1) }

// Term returns coef*n.
func Term(n Name, coef int64) Expr {
	if coef == 0 {
		return Expr{}
	}
	return Expr{terms: []term{{n, coef}}}
}

// combine returns a + k*b, leaving out a's summand at index skip (-1
// keeps them all). It allocates at most once, and not at all when one
// side contributes no summands.
func combine(a Expr, skip int, b Expr, k int64) Expr {
	r := Expr{konst: a.konst + k*b.konst}
	switch {
	case k == 0 || len(b.terms) == 0:
		if skip < 0 {
			r.terms = a.terms
		} else if len(a.terms) > 1 {
			r.terms = make([]term, 0, len(a.terms)-1)
			r.terms = append(append(r.terms, a.terms[:skip]...), a.terms[skip+1:]...)
		}
		return r
	case k == 1 && (len(a.terms) == 0 || skip >= 0 && len(a.terms) == 1):
		r.terms = b.terms
		return r
	}
	out := make([]term, 0, len(a.terms)+len(b.terms))
	i, j := 0, 0
	for i < len(a.terms) || j < len(b.terms) {
		switch {
		case i == skip:
			i++
		case j == len(b.terms) || i < len(a.terms) && a.terms[i].name < b.terms[j].name:
			out = append(out, a.terms[i])
			i++
		case i == len(a.terms) || b.terms[j].name < a.terms[i].name:
			if c := k * b.terms[j].coef; c != 0 {
				out = append(out, term{b.terms[j].name, c})
			}
			j++
		default:
			if c := a.terms[i].coef + k*b.terms[j].coef; c != 0 {
				out = append(out, term{a.terms[i].name, c})
			}
			i++
			j++
		}
	}
	if len(out) > 0 {
		r.terms = out
	}
	return r
}

// Add returns e + o.
func (e Expr) Add(o Expr) Expr { return combine(e, -1, o, 1) }

// Sub returns e - o.
func (e Expr) Sub(o Expr) Expr { return combine(e, -1, o, -1) }

// Neg returns -e.
func (e Expr) Neg() Expr { return e.Scale(-1) }

// Scale returns k*e.
func (e Expr) Scale(k int64) Expr {
	if k == 1 {
		return e
	}
	return combine(Expr{}, -1, e, k)
}

// AddConst returns e + c.
func (e Expr) AddConst(c int64) Expr {
	return Expr{konst: e.konst + c, terms: e.terms}
}

// IsConst reports whether e has no symbolic terms, and if so its value.
func (e Expr) IsConst() (int64, bool) {
	if len(e.terms) == 0 {
		return e.konst, true
	}
	return 0, false
}

// ConstPart returns the constant component of e.
func (e Expr) ConstPart() int64 { return e.konst }

// index returns the position of name n among e's summands, or -1.
func (e Expr) index(n Name) int {
	for i, t := range e.terms {
		if t.name == n {
			return i
		}
	}
	return -1
}

// Coef returns the coefficient of name n (zero if absent).
func (e Expr) Coef(n Name) int64 {
	if i := e.index(n); i >= 0 {
		return e.terms[i].coef
	}
	return 0
}

// Names returns the SSA names appearing in e, sorted.
func (e Expr) Names() []Name {
	ns := make([]Name, len(e.terms))
	for i, t := range e.terms {
		ns[i] = t.name
	}
	return ns
}

// Uses reports whether name n appears in e with nonzero coefficient.
func (e Expr) Uses(n Name) bool { return e.index(n) >= 0 }

// Equal reports structural equality.
func (e Expr) Equal(o Expr) bool {
	return e.konst == o.konst && sameTerms(e.terms, o.terms)
}

func sameTerms(a, b []term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Subst replaces every occurrence of name n with expression v.
func (e Expr) Subst(n Name, v Expr) Expr {
	i := e.index(n)
	if i < 0 {
		return e
	}
	return combine(e, i, v, e.terms[i].coef)
}

// Eval evaluates e under an environment giving each name an integer
// value. It reports false if any name is unbound.
func (e Expr) Eval(env map[Name]int64) (int64, bool) {
	v := e.konst
	for _, t := range e.terms {
		nv, ok := env[t.name]
		if !ok {
			return 0, false
		}
		v += t.coef * nv
	}
	return v, true
}

// String renders e deterministically, e.g. "2*n.1 - i.3 + 4".
func (e Expr) String() string {
	if len(e.terms) == 0 {
		return strconv.FormatInt(e.konst, 10)
	}
	var b strings.Builder
	for i, t := range e.terms {
		c := t.coef
		switch {
		case i == 0 && c == -1:
			b.WriteByte('-')
			c = 1
		case i == 0:
		case c < 0:
			b.WriteString(" - ")
			c = -c
		default:
			b.WriteString(" + ")
		}
		if c != 1 {
			b.WriteString(strconv.FormatInt(c, 10))
			b.WriteByte('*')
		}
		b.WriteString(string(t.name))
	}
	if e.konst > 0 {
		b.WriteString(" + ")
		b.WriteString(strconv.FormatInt(e.konst, 10))
	} else if e.konst < 0 {
		b.WriteString(" - ")
		b.WriteString(strconv.FormatInt(-e.konst, 10))
	}
	return b.String()
}
