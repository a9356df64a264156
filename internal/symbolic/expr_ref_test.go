package symbolic

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refExpr is the representation Expr had before it became a sorted
// term slice: a constant and a map from name to nonzero coefficient.
// It stays here as the reference the property test compares against.
type refExpr struct {
	konst int64
	terms map[Name]int64
}

func refTerm(n Name, coef int64) refExpr {
	if coef == 0 {
		return refExpr{}
	}
	return refExpr{terms: map[Name]int64{n: coef}}
}

func (e refExpr) add(o refExpr) refExpr {
	r := refExpr{konst: e.konst + o.konst, terms: map[Name]int64{}}
	for n, c := range e.terms {
		r.terms[n] = c
	}
	for n, c := range o.terms {
		if nc := r.terms[n] + c; nc == 0 {
			delete(r.terms, n)
		} else {
			r.terms[n] = nc
		}
	}
	return r
}

func (e refExpr) scale(k int64) refExpr {
	r := refExpr{konst: e.konst * k, terms: map[Name]int64{}}
	if k != 0 {
		for n, c := range e.terms {
			r.terms[n] = c * k
		}
	}
	return r
}

func (e refExpr) subst(n Name, v refExpr) refExpr {
	c, ok := e.terms[n]
	if !ok {
		return e
	}
	r := refExpr{konst: e.konst, terms: map[Name]int64{}}
	for m, mc := range e.terms {
		if m != n {
			r.terms[m] = mc
		}
	}
	return r.add(v.scale(c))
}

func (e refExpr) names() []Name {
	ns := make([]Name, 0, len(e.terms))
	for n := range e.terms {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns
}

func (e refExpr) eval(env map[Name]int64) int64 {
	v := e.konst
	for n, c := range e.terms {
		v += c * env[n]
	}
	return v
}

// String is the old renderer, fmt verbs and all.
func (e refExpr) String() string {
	if len(e.terms) == 0 {
		return fmt.Sprintf("%d", e.konst)
	}
	var b strings.Builder
	for i, n := range e.names() {
		c := e.terms[n]
		switch {
		case i == 0 && c == 1:
			b.WriteString(string(n))
		case i == 0 && c == -1:
			b.WriteString("-" + string(n))
		case i == 0:
			fmt.Fprintf(&b, "%d*%s", c, n)
		case c == 1:
			b.WriteString(" + " + string(n))
		case c == -1:
			b.WriteString(" - " + string(n))
		case c > 0:
			fmt.Fprintf(&b, " + %d*%s", c, n)
		default:
			fmt.Fprintf(&b, " - %d*%s", -c, n)
		}
	}
	if e.konst > 0 {
		fmt.Fprintf(&b, " + %d", e.konst)
	} else if e.konst < 0 {
		fmt.Fprintf(&b, " - %d", -e.konst)
	}
	return b.String()
}

// propNames is small so that random trees cancel, collide and
// substitute into names they already hold.
var propNames = []Name{"a.1", "a.10", "a.2", "i.3", "i.3'", "n", "$lo.1", Star}

// randTree builds the same random expression in both representations.
func randTree(rng *rand.Rand, depth int) (Expr, refExpr) {
	name := func() Name { return propNames[rng.Intn(len(propNames))] }
	small := func() int64 { return int64(rng.Intn(7) - 3) }
	if depth == 0 || rng.Intn(5) == 0 {
		switch rng.Intn(3) {
		case 0:
			c := small()
			return Const(c), refExpr{konst: c}
		case 1:
			n := name()
			return Var(n), refTerm(n, 1)
		default:
			n, c := name(), small()
			return Term(n, c), refTerm(n, c)
		}
	}
	e, re := randTree(rng, depth-1)
	switch rng.Intn(6) {
	case 0:
		o, ro := randTree(rng, depth-1)
		return e.Add(o), re.add(ro)
	case 1:
		o, ro := randTree(rng, depth-1)
		return e.Sub(o), re.add(ro.scale(-1))
	case 2:
		k := small()
		return e.Scale(k), re.scale(k)
	case 3:
		c := small()
		return e.AddConst(c), refExpr{konst: re.konst + c, terms: re.terms}
	case 4:
		return e.Neg(), re.scale(-1)
	default:
		n := name()
		v, rv := randTree(rng, depth-1)
		return e.Subst(n, v), re.subst(n, rv)
	}
}

// TestExprAgainstReference builds seeded random operation trees and
// holds Expr to the map-based reference: the same names, coefficients
// and constant, the same value under random environments, and a
// rendering byte-identical to the old one.
func TestExprAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 5000; trial++ {
		e, re := randTree(rng, 1+rng.Intn(5))
		if got, want := e.String(), re.String(); got != want {
			t.Fatalf("trial %d: String = %q, reference %q", trial, got, want)
		}
		if e.ConstPart() != re.konst {
			t.Fatalf("trial %d: %v: ConstPart = %d, reference %d", trial, e, e.ConstPart(), re.konst)
		}
		names := e.Names()
		if fmt.Sprint(names) != fmt.Sprint(re.names()) {
			t.Fatalf("trial %d: %v: Names = %v, reference %v", trial, e, names, re.names())
		}
		for _, n := range propNames {
			if e.Coef(n) != re.terms[n] || e.Uses(n) != (re.terms[n] != 0) {
				t.Fatalf("trial %d: %v: Coef(%s) = %d, Uses = %v, reference %d", trial, e, n, e.Coef(n), e.Uses(n), re.terms[n])
			}
		}
		for k := 0; k < 3; k++ {
			env := map[Name]int64{}
			for _, n := range propNames {
				env[n] = int64(rng.Intn(41) - 20)
			}
			if got, ok := e.Eval(env); !ok || got != re.eval(env) {
				t.Fatalf("trial %d: %v: Eval = %d, %v, reference %d", trial, e, got, ok, re.eval(env))
			}
		}
		// Equal agrees with the canonical form: rebuilding the
		// expression term by term in reverse order gives an equal one.
		rebuilt := Const(e.ConstPart())
		for i := len(names) - 1; i >= 0; i-- {
			rebuilt = Term(names[i], e.Coef(names[i])).Add(rebuilt)
		}
		if !e.Equal(rebuilt) || !rebuilt.Equal(e) {
			t.Fatalf("trial %d: %v does not equal its rebuilt form %v", trial, e, rebuilt)
		}
		if e.Equal(e.AddConst(1)) || e.Equal(e.Add(Var("fresh"))) {
			t.Fatalf("trial %d: %v equals a different expression", trial, e)
		}
	}
}

// TestExprSharingIsSafe checks the immutability contract from the
// outside: results that share a term slice with their operand stay
// intact whatever is derived from either afterwards.
func TestExprSharingIsSafe(t *testing.T) {
	e := Term("i", 2).Add(Var("n"))
	shifted := e.AddConst(1)
	same := e.Scale(1)
	plusConst := e.Add(Const(4))
	fromZero := Const(3).Add(e)

	// Derive in every direction from the shared slice.
	_ = e.Add(Var("a"))
	_ = e.Add(Var("z"))
	_ = shifted.Sub(Var("i"))
	_ = same.Subst("i", Var("j").AddConst(5))
	_ = plusConst.Scale(-3)
	_ = fromZero.Add(Term("n", -1))
	_ = e.Subst("n", Var("n").AddConst(-1))

	for _, c := range []struct {
		got  Expr
		want string
	}{
		{e, "2*i + n"},
		{shifted, "2*i + n + 1"},
		{same, "2*i + n"},
		{plusConst, "2*i + n + 4"},
		{fromZero, "2*i + n + 3"},
	} {
		if c.got.String() != c.want {
			t.Errorf("shared expression changed: %q, want %q", c.got, c.want)
		}
	}
}

// TestExprAllocs gates what the representation is for: operations that
// leave the summands alone allocate nothing, a merge allocates its
// result and nothing else, and the prover decides a constant
// difference for at most the one allocation of building it.
func TestExprAllocs(t *testing.T) {
	a := Term("i", 2).Add(Var("n")).AddConst(3)
	b := Var("j").Add(Var("n"))
	c := a.AddConst(-4)
	var sink Expr
	var truth bool
	for _, g := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"AddConst", 0, func() { sink = a.AddConst(7) }},
		{"Scale(1)", 0, func() { sink = a.Scale(1) }},
		{"Add const", 0, func() { sink = a.Add(Const(7)) }},
		{"Add", 1, func() { sink = a.Add(b) }},
		{"Sub", 1, func() { sink = a.Sub(b) }},
		{"Scale", 1, func() { sink = a.Scale(3) }},
		{"Subst", 1, func() { sink = a.Subst("i", b) }},
		{"Equal", 0, func() { truth = a.Equal(c) }},
		{"ProvesLess const diff", 1, func() { truth = ProvesLess(c, a, nil) }},
		{"ProvesLessEq const diff", 1, func() { truth = ProvesLessEq(a, c, nil) }},
		{"ProvesNotEqual const diff", 1, func() { truth = ProvesNotEqual(a, c, nil) }},
	} {
		if got := testing.AllocsPerRun(100, g.fn); got > g.max {
			t.Errorf("%s: %v allocs/op, want at most %v", g.name, got, g.max)
		}
	}
	_, _ = sink, truth
}
