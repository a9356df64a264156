package symbolic

// This file implements the conservative prover behind descriptor
// interference (§3.2). Every Proves* function returns true only when the
// property is certain; false means "unknown", and callers must assume
// interference. That is the paper's discipline: "We compute interference
// conservatively; descriptors interfere unless we can prove otherwise."

// constDiff reports a - b when that is a constant, which is when the
// two have the same summands; it builds nothing. The constant case is
// the first thing every question below and in pred.go asks.
func constDiff(a, b Expr) (int64, bool) {
	if !sameTerms(a.terms, b.terms) {
		return 0, false
	}
	return a.konst - b.konst, true
}

// ProvesNotEqual reports whether a != b is provable under ctx.
func ProvesNotEqual(a, b Expr, ctx Conj) bool {
	if c, ok := constDiff(a, b); ok {
		return c != 0
	}
	// ctx may directly assert the disequality (or an equivalent form).
	if ctx.Implies(CmpExpr(a, NE, b)) {
		return true
	}
	if ctx.Implies(CmpExpr(a, LT, b)) || ctx.Implies(CmpExpr(a, GT, b)) {
		return true
	}
	d := a.Sub(b)
	if len(d.terms) != 2 {
		return false
	}
	x, y := d.terms[0], d.terms[1]
	// d == k*(x - y) with ctx |- x != y and k != 0.
	if d.konst == 0 && x.coef == -y.coef && ctx.Implies(CmpExpr(Var(x.name), NE, Var(y.name))) {
		return true
	}
	// d == (x - y) + c with a known strict ordering of x and y whose
	// sign agrees with c: ctx |- x < y and c <= 0 gives d <= -1, and
	// symmetrically. (This is the loop-interchange legality pattern:
	// subscripts like i-1 vs i' under i < i'.)
	if x.coef == 1 && y.coef == -1 && signedDifferenceNonzero(x.name, y.name, d.konst, ctx) {
		return true
	}
	return x.coef == -1 && y.coef == 1 && signedDifferenceNonzero(y.name, x.name, d.konst, ctx)
}

// signedDifferenceNonzero reports whether (x - y) + c is provably
// nonzero given an ordering of x and y in ctx: x < y makes x-y <= -1,
// so any c <= 0 keeps the sum negative; x > y makes x-y >= 1, so any
// c >= 0 keeps it positive.
func signedDifferenceNonzero(x, y Name, c int64, ctx Conj) bool {
	if c <= 0 && (ctx.Implies(CmpExpr(Var(x), LT, Var(y))) ||
		ctx.Implies(CmpExpr(Var(y), GT, Var(x)))) {
		return true
	}
	if c >= 0 && (ctx.Implies(CmpExpr(Var(x), GT, Var(y))) ||
		ctx.Implies(CmpExpr(Var(y), LT, Var(x)))) {
		return true
	}
	return false
}

// ProvesLess reports whether a < b is provable under ctx.
func ProvesLess(a, b Expr, ctx Conj) bool {
	if c, ok := constDiff(a, b); ok {
		return c < 0
	}
	if ctx.Implies(CmpExpr(a, LT, b)) {
		return true
	}
	d := a.Sub(b)
	// d == (x - y) + c with ctx |- x < y and c <= 0 gives d < 0.
	if len(d.terms) != 2 || d.konst > 0 {
		return false
	}
	x, y := d.terms[0], d.terms[1]
	if x.coef == 1 && y.coef == -1 && ctx.Implies(CmpExpr(Var(x.name), LT, Var(y.name))) {
		return true
	}
	return x.coef == -1 && y.coef == 1 && ctx.Implies(CmpExpr(Var(y.name), LT, Var(x.name)))
}

// ProvesLessEq reports whether a <= b is provable under ctx.
func ProvesLessEq(a, b Expr, ctx Conj) bool {
	if c, ok := constDiff(a, b); ok {
		return c <= 0
	}
	return ctx.Implies(CmpExpr(a, LE, b))
}

// ProvesDisjointRanges reports whether ranges a and b are provably
// disjoint under ctx. The tests, in order of increasing cost:
//
//  1. one range is provably entirely below the other;
//  2. both are points with provably unequal values;
//  3. a point provably outside the other range;
//  4. equal skips > 1 with a provably non-congruent constant offset.
func ProvesDisjointRanges(a, b Range, ctx Conj) bool {
	if ProvesLess(a.End, b.Start, ctx) || ProvesLess(b.End, a.Start, ctx) {
		return true
	}
	pa, aPoint := a.IsPoint()
	pb, bPoint := b.IsPoint()
	if aPoint && bPoint {
		return ProvesNotEqual(pa, pb, ctx)
	}
	if aPoint && provesOutside(pa, b, ctx) {
		return true
	}
	if bPoint && provesOutside(pb, a, ctx) {
		return true
	}
	// Strided ranges with the same skip: disjoint when the offset of
	// their starts is a constant not divisible by the skip, and the
	// ranges otherwise share the stride lattice.
	if a.Skip == b.Skip && a.Skip > 1 {
		if off, ok := a.Start.Sub(b.Start).IsConst(); ok {
			m := off % a.Skip
			if m < 0 {
				m += a.Skip
			}
			if m != 0 {
				return true
			}
		}
	}
	return false
}

// provesOutside reports whether point p is provably not a member of
// range r under ctx.
func provesOutside(p Expr, r Range, ctx Conj) bool {
	if ProvesLess(p, r.Start, ctx) || ProvesLess(r.End, p, ctx) {
		return true
	}
	// Membership in a strided range requires congruence.
	if r.Skip > 1 {
		if off, ok := p.Sub(r.Start).IsConst(); ok {
			m := off % r.Skip
			if m < 0 {
				m += r.Skip
			}
			if m != 0 {
				return true
			}
		}
	}
	return false
}

// ProvesContained reports whether range inner is provably a subset of
// range outer under ctx (ignoring stride refinement beyond equal or
// unit skips).
func ProvesContained(inner, outer Range, ctx Conj) bool {
	if outer.Skip != 1 && outer.Skip != inner.Skip {
		return false
	}
	return ProvesLessEq(outer.Start, inner.Start, ctx) &&
		ProvesLessEq(inner.End, outer.End, ctx)
}
