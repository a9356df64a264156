package symbolic

import "strings"

// Conj is a conjunction of predicates, all assumed to hold
// simultaneously. It doubles as the proof context threaded through the
// descriptor-interference tests.
type Conj []Pred

// And returns the conjunction extended with p (no deduplication beyond
// exact equivalence).
func (c Conj) And(p Pred) Conj {
	for _, q := range c {
		if q.Equivalent(p) {
			return c
		}
	}
	out := make(Conj, len(c), len(c)+1)
	copy(out, c)
	return append(out, p)
}

// Merge returns the conjunction of c and o: c followed by each
// predicate of o not equivalent to one already there. When o adds
// nothing the result is c itself, when c is empty and o holds no two
// equivalent predicates it is o itself, and otherwise it is one new
// slice.
func (c Conj) Merge(o Conj) Conj {
	if len(c) == 0 && o.distinct() {
		return o[:len(o):len(o)]
	}
	out := c
	fresh := false
next:
	for _, p := range o {
		for _, q := range out {
			if q.Equivalent(p) {
				continue next
			}
		}
		if !fresh {
			out = make(Conj, len(c), len(c)+len(o))
			copy(out, c)
			fresh = true
		}
		out = append(out, p)
	}
	return out[:len(out):len(out)]
}

// distinct reports whether no two predicates of c are equivalent.
func (c Conj) distinct() bool {
	for i, p := range c {
		for _, q := range c[:i] {
			if q.Equivalent(p) {
				return false
			}
		}
	}
	return true
}

// ProvesFalse reports whether the conjunction is provably unsatisfiable:
// it contains a constant-false predicate or a contradictory pair.
func (c Conj) ProvesFalse() bool {
	for i, p := range c {
		if truth, ok := p.ConstTruth(); ok && !truth {
			return true
		}
		for _, q := range c[i+1:] {
			if p.Contradicts(q) {
				return true
			}
		}
	}
	return false
}

// Implies conservatively reports whether the conjunction entails p.
func (c Conj) Implies(p Pred) bool {
	if truth, ok := p.ConstTruth(); ok && truth {
		return true
	}
	for _, q := range c {
		if q.Equivalent(p) {
			return true
		}
		if implies(q, p) {
			return true
		}
	}
	// A false context implies everything.
	return c.ProvesFalse()
}

// implies reports simple one-step linear entailments q => p.
func implies(q, p Pred) bool {
	qd, qok := q.diff()
	pd, pok := p.diff()
	if !qok || !pok {
		return false
	}
	delta, ok := constDiff(pd, qd)
	if !ok {
		return false
	}
	// q: d opQ 0 known; p: (d + delta) opP 0 wanted.
	loQ, hiQ := opInterval(q.Op, 0)
	loP, hiP := opInterval(p.Op, -delta)
	if q.Op == NE || p.Op == NE {
		// d != 0 implies d+delta != delta only (same diff).
		return q.Op == NE && p.Op == NE && delta == 0
	}
	// Interval containment: [loQ,hiQ] ⊆ [loP,hiP].
	if loP != nil && (loQ == nil || *loQ < *loP) {
		return false
	}
	if hiP != nil && (hiQ == nil || *hiQ > *hiP) {
		return false
	}
	return true
}

// Equal reports structural equality: the same predicates in the same
// order.
func (c Conj) Equal(o Conj) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if !c[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Subst replaces name n with expression v across the conjunction.
func (c Conj) Subst(n Name, v Expr) Conj {
	out := make(Conj, len(c))
	for i, p := range c {
		out[i] = p.Subst(n, v)
	}
	return out
}

// Uses reports whether name n appears anywhere in the conjunction.
func (c Conj) Uses(n Name) bool {
	for _, p := range c {
		if p.Uses(n) {
			return true
		}
	}
	return false
}

// String renders the conjunction, e.g. "i >= 1 && i <= n.1".
func (c Conj) String() string {
	if len(c) == 0 {
		return "true"
	}
	parts := make([]string, len(c))
	for i, p := range c {
		parts[i] = p.String()
	}
	return strings.Join(parts, " && ")
}

// Assertion is a disjunction of conjunctions of inequalities (the
// paper's form, §3.1). An empty disjunction is false; a disjunction
// containing an empty conjunction is true.
type Assertion struct {
	disjuncts []Conj
	isTrue    bool
}

// True returns the trivially true assertion.
func True() Assertion { return Assertion{isTrue: true} }

// False returns the trivially false assertion.
func False() Assertion { return Assertion{} }

// FromPred lifts a single predicate.
func FromPred(p Pred) Assertion { return Assertion{disjuncts: []Conj{{p}}} }

// IsTrue reports whether the assertion is the constant true.
func (a Assertion) IsTrue() bool { return a.isTrue }

// IsFalse reports whether the assertion is provably false.
func (a Assertion) IsFalse() bool {
	if a.isTrue {
		return false
	}
	for _, c := range a.disjuncts {
		if !c.ProvesFalse() {
			return false
		}
	}
	return true
}

// Or returns a ∨ b.
func (a Assertion) Or(b Assertion) Assertion {
	if a.isTrue || b.isTrue {
		return True()
	}
	out := make([]Conj, 0, len(a.disjuncts)+len(b.disjuncts))
	out = append(out, a.disjuncts...)
	out = append(out, b.disjuncts...)
	return Assertion{disjuncts: out}
}

// And returns a ∧ b by distributing.
func (a Assertion) And(b Assertion) Assertion {
	if a.isTrue {
		return b
	}
	if b.isTrue {
		return a
	}
	var out []Conj
	for _, ca := range a.disjuncts {
		for _, cb := range b.disjuncts {
			m := ca.Merge(cb)
			if !m.ProvesFalse() {
				out = append(out, m)
			}
		}
	}
	return Assertion{disjuncts: out}
}

// Not negates the assertion. Negation of a DNF can blow up; we apply
// De Morgan and distribute, which is acceptable for the small
// assertions branch analysis produces.
func (a Assertion) Not() Assertion {
	if a.isTrue {
		return False()
	}
	if len(a.disjuncts) == 0 {
		return True()
	}
	// not(OR_i AND_j p_ij) = AND_i OR_j not(p_ij)
	result := True()
	for _, c := range a.disjuncts {
		inner := False()
		for _, p := range c {
			inner = inner.Or(FromPred(p.Negate()))
		}
		result = result.And(inner)
	}
	return result
}

// Implies conservatively reports whether a entails p: every disjunct of
// a must imply p.
func (a Assertion) Implies(p Pred) bool {
	if a.isTrue {
		truth, ok := p.ConstTruth()
		return ok && truth
	}
	if len(a.disjuncts) == 0 {
		return true // false implies anything
	}
	for _, c := range a.disjuncts {
		if !c.Implies(p) {
			return false
		}
	}
	return true
}

// Subst replaces name n with expression v across the assertion.
func (a Assertion) Subst(n Name, v Expr) Assertion {
	if a.isTrue {
		return a
	}
	out := make([]Conj, len(a.disjuncts))
	for i, c := range a.disjuncts {
		out[i] = c.Subst(n, v)
	}
	return Assertion{disjuncts: out}
}

// String renders the assertion.
func (a Assertion) String() string {
	if a.isTrue {
		return "true"
	}
	if len(a.disjuncts) == 0 {
		return "false"
	}
	parts := make([]string, len(a.disjuncts))
	for i, c := range a.disjuncts {
		if len(a.disjuncts) > 1 {
			parts[i] = "(" + c.String() + ")"
		} else {
			parts[i] = c.String()
		}
	}
	return strings.Join(parts, " || ")
}
