package symbolic

import (
	"fmt"
	"strings"
)

// Star is the reserved name the paper writes as "*": the pattern-matching
// symbol that represents the current element in a range. Descriptor masks
// such as  miss[*] != 1  use it as the index of the masked dimension.
const Star Name = "*"

// CmpOp is a comparison operator in a predicate.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota // ==
	NE              // !=
	LT              // <
	LE              // <=
	GT              // >
	GE              // >=
)

// Negate returns the complementary operator (the operator c such that
// a c b  ==  !(a op b)).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	panic(fmt.Sprintf("symbolic: bad CmpOp %d", int(op)))
}

// String renders the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "=="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// holds reports whether  lhs op rhs  for concrete integers.
func (op CmpOp) holds(lhs, rhs int64) bool {
	switch op {
	case EQ:
		return lhs == rhs
	case NE:
		return lhs != rhs
	case LT:
		return lhs < rhs
	case LE:
		return lhs <= rhs
	case GT:
		return lhs > rhs
	case GE:
		return lhs >= rhs
	}
	return false
}

// Atom is an operand of a predicate: either a linear expression or an
// array element reference. Array elements appear in guards such as
// mask[col] != 0, which the linear domain cannot express.
type Atom struct {
	// Array is empty for a pure expression atom; otherwise it names the
	// array and Index gives one expression per dimension.
	Array Name
	Index []Expr
	// E is the expression when Array is empty.
	E Expr
}

// ExprAtom wraps a linear expression.
func ExprAtom(e Expr) Atom { return Atom{E: e} }

// ElemAtom wraps an array element reference.
func ElemAtom(array Name, index ...Expr) Atom {
	return Atom{Array: array, Index: index}
}

// IsElem reports whether the atom is an array element reference.
func (a Atom) IsElem() bool { return a.Array != "" }

// Equal reports structural equality.
func (a Atom) Equal(b Atom) bool {
	if a.Array != b.Array || len(a.Index) != len(b.Index) {
		return false
	}
	for i := range a.Index {
		if !a.Index[i].Equal(b.Index[i]) {
			return false
		}
	}
	if a.Array != "" {
		return true
	}
	return a.E.Equal(b.E)
}

// Subst replaces name n with expression v throughout the atom.
func (a Atom) Subst(n Name, v Expr) Atom {
	if a.Array == "" {
		return Atom{E: a.E.Subst(n, v)}
	}
	idx := make([]Expr, len(a.Index))
	for i, e := range a.Index {
		idx[i] = e.Subst(n, v)
	}
	return Atom{Array: a.Array, Index: idx}
}

// Uses reports whether name n appears anywhere in the atom.
func (a Atom) Uses(n Name) bool {
	if a.Array == "" {
		return a.E.Uses(n)
	}
	for _, e := range a.Index {
		if e.Uses(n) {
			return true
		}
	}
	return false
}

// String renders the atom.
func (a Atom) String() string {
	if a.Array == "" {
		return a.E.String()
	}
	parts := make([]string, len(a.Index))
	for i, e := range a.Index {
		parts[i] = e.String()
	}
	return fmt.Sprintf("%s[%s]", a.Array, strings.Join(parts, ","))
}

// Pred is a single comparison predicate  Lhs Op Rhs. Predicates appear
// as branch-condition assertions, descriptor guards, and masks.
type Pred struct {
	Lhs Atom
	Op  CmpOp
	Rhs Atom
}

// NewPred builds a predicate.
func NewPred(lhs Atom, op CmpOp, rhs Atom) Pred { return Pred{Lhs: lhs, Op: op, Rhs: rhs} }

// CmpExpr builds a predicate over two linear expressions.
func CmpExpr(lhs Expr, op CmpOp, rhs Expr) Pred {
	return Pred{Lhs: ExprAtom(lhs), Op: op, Rhs: ExprAtom(rhs)}
}

// Negate returns the logical complement of p.
func (p Pred) Negate() Pred { return Pred{Lhs: p.Lhs, Op: p.Op.Negate(), Rhs: p.Rhs} }

// Subst replaces name n with expression v throughout p.
func (p Pred) Subst(n Name, v Expr) Pred {
	return Pred{Lhs: p.Lhs.Subst(n, v), Op: p.Op, Rhs: p.Rhs.Subst(n, v)}
}

// Uses reports whether name n appears in p.
func (p Pred) Uses(n Name) bool { return p.Lhs.Uses(n) || p.Rhs.Uses(n) }

// Equal reports structural equality.
func (p Pred) Equal(q Pred) bool {
	return p.Op == q.Op && p.Lhs.Equal(q.Lhs) && p.Rhs.Equal(q.Rhs)
}

// Equivalent reports whether p and q denote the same predicate, allowing
// for operand order (a == b vs b == a) and linear normalization
// (a < b vs a-b < 0).
func (p Pred) Equivalent(q Pred) bool {
	if p.Equal(q) {
		return true
	}
	// Symmetric operators allow swapped operands.
	if (p.Op == EQ || p.Op == NE) && p.Op == q.Op &&
		p.Lhs.Equal(q.Rhs) && p.Rhs.Equal(q.Lhs) {
		return true
	}
	// Flipped comparisons: a < b == b > a.
	if q.Op == flip(p.Op) && p.Lhs.Equal(q.Rhs) && p.Rhs.Equal(q.Lhs) {
		return true
	}
	// Linear normalization for pure-expression predicates.
	if p.Op != q.Op {
		return false
	}
	pd, pok := p.diff()
	qd, qok := q.diff()
	return pok && qok && pd.Equal(qd)
}

// flip mirrors a comparison across its operands: a op b == b flip(op) a.
func flip(op CmpOp) CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return op
}

// diff returns Lhs-Rhs for pure-expression predicates.
func (p Pred) diff() (Expr, bool) {
	if p.Lhs.IsElem() || p.Rhs.IsElem() {
		return Expr{}, false
	}
	return p.Lhs.E.Sub(p.Rhs.E), true
}

// ConstTruth reports the truth value of p when it is decidable from
// constants alone; ok is false otherwise.
func (p Pred) ConstTruth() (truth, ok bool) {
	if p.Lhs.IsElem() || p.Rhs.IsElem() {
		return false, false
	}
	c, isConst := constDiff(p.Lhs.E, p.Rhs.E)
	if !isConst {
		return false, false
	}
	return p.Op.holds(c, 0), true
}

// Contradicts reports whether p and q can be shown mutually exclusive.
func (p Pred) Contradicts(q Pred) bool {
	if p.Negate().Equivalent(q) {
		return true
	}
	// Linear reasoning: both predicates about the same difference.
	pd, pok := p.diff()
	qd, qok := q.diff()
	if !pok || !qok {
		// Same array element compared against two different constants
		// with EQ on both sides: a[i] == 1 contradicts a[i] == 2.
		if p.Op == EQ && q.Op == EQ && p.Lhs.Equal(q.Lhs) &&
			!p.Rhs.IsElem() && !q.Rhs.IsElem() {
			pc, ok1 := p.Rhs.E.IsConst()
			qc, ok2 := q.Rhs.E.IsConst()
			return ok1 && ok2 && pc != qc
		}
		return false
	}
	// pd and qd differ by a constant k: p about d, q about d-k.
	if delta, ok := constDiff(pd, qd); ok {
		return rangesOfOpsDisjoint(p.Op, q.Op, delta)
	}
	return false
}

// rangesOfOpsDisjoint reports whether {d : d opP 0} and {d : d-delta opQ 0}
// are disjoint sets of integers, i.e. no d satisfies both d opP 0 and
// (d-delta) opQ 0.
func rangesOfOpsDisjoint(opP, opQ CmpOp, delta int64) bool {
	loP, hiP := opInterval(opP, 0)
	loQ, hiQ := opInterval(opQ, delta)
	if loP == nil && hiP == nil || loQ == nil && hiQ == nil {
		return false // NE gives no interval
	}
	// Intersect [loP,hiP] with [loQ,hiQ]; disjoint if empty.
	lo := maxPtr(loP, loQ)
	hi := minPtr(hiP, hiQ)
	if lo != nil && hi != nil && *lo > *hi {
		return true
	}
	// EQ vs NE on the same point.
	if opP == EQ && opQ == NE && delta == 0 {
		return true
	}
	if opP == NE && opQ == EQ && delta == 0 {
		return true
	}
	return false
}

// opInterval returns the closed integer interval {d : (d-shift) op 0} as
// optional bounds (nil = unbounded). NE returns (nil, nil).
func opInterval(op CmpOp, shift int64) (lo, hi *int64) {
	v := func(x int64) *int64 { return &x }
	switch op {
	case EQ:
		return v(shift), v(shift)
	case LT:
		return nil, v(shift - 1)
	case LE:
		return nil, v(shift)
	case GT:
		return v(shift + 1), nil
	case GE:
		return v(shift), nil
	}
	return nil, nil
}

func maxPtr(a, b *int64) *int64 {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if *a > *b {
		return a
	}
	return b
}

func minPtr(a, b *int64) *int64 {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if *a < *b {
		return a
	}
	return b
}

// String renders the predicate.
func (p Pred) String() string {
	return fmt.Sprintf("%s %s %s", p.Lhs, p.Op, p.Rhs)
}
