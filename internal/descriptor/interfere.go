package descriptor

import "orchestra/internal/symbolic"

// mayIntersect conservatively reports whether two triples of one block
// can reference a common memory location, given a context ctx of
// predicates known to hold and ctxA = ctx ∧ a.Guard, which does not
// prove false (a's access can occur). It returns false only when
// disjointness is provable.
func mayIntersect(a, b *Triple, ctx, ctxA symbolic.Conj) bool {
	ctxB := ctx
	if len(b.Guard) > 0 {
		// If b's access provably cannot occur, or the two guards cannot
		// hold in the same execution, the accesses never coexist, hence
		// no dependence between them. ctxA holds every predicate of
		// ctx, so an unguarded b adds nothing ctxA has not survived,
		// and under an unguarded a the second question is the first.
		ctxB = ctx.Merge(b.Guard)
		if ctxB.ProvesFalse() || len(a.Guard) > 0 && ctxA.Merge(b.Guard).ProvesFalse() {
			return false
		}
	}
	if a.Whole() || b.Whole() {
		return true
	}
	if len(a.Dims) != len(b.Dims) {
		// Mismatched dimensionality (should not happen for well-typed
		// programs); assume intersection.
		return true
	}
	// Disjoint if ANY dimension is provably disjoint.
	for i := range a.Dims {
		if dimsDisjoint(&a.Dims[i], &b.Dims[i], ctxA, ctxB, ctx) {
			return false
		}
	}
	return true
}

// dimsDisjoint reports whether the index sets of one dimension are
// provably disjoint. ctxA and ctxB are ctx with each access's guard.
func dimsDisjoint(da, db *Dim, ctxA, ctxB, ctx symbolic.Conj) bool {
	// Complementary masks: the element sets {x : Pa(x)} and {x : Pb(x)}
	// cannot share an element when the instantiated predicates
	// contradict for the generic element.
	if da.Mask != nil && db.Mask != nil {
		if da.Mask.Pred.Contradicts(db.Mask.Pred) {
			return true
		}
	}
	// Point vs mask: instantiate the mask at the point and test against
	// the point's guard and the context.
	if p, ok := da.IsPoint(); ok && db.Mask != nil {
		inst := db.Mask.Instantiate(p)
		if ctxA.And(inst).ProvesFalse() {
			return true
		}
	}
	if p, ok := db.IsPoint(); ok && da.Mask != nil {
		inst := da.Mask.Instantiate(p)
		if ctxB.And(inst).ProvesFalse() {
			return true
		}
	}
	// Range disjointness: every pair of ranges provably disjoint.
	for _, ra := range da.Ranges {
		for _, rb := range db.Ranges {
			if !symbolic.ProvesDisjointRanges(ra, rb, ctx) {
				return false
			}
		}
	}
	return true
}

// setsIntersect reports whether any triple of as may intersect any of
// bs. Blocks are compared before anything is proved, and an outer
// triple's context ctx ∧ Guard is built and refuted once per scan.
func setsIntersect(as, bs []Triple, ctx symbolic.Conj) bool {
	for i := range as {
		a := &as[i]
		var ctxA symbolic.Conj
		live := false
		for j := range bs {
			b := &bs[j]
			if a.Block != b.Block {
				continue
			}
			if !live {
				if ctxA = ctx.Merge(a.Guard); ctxA.ProvesFalse() {
					break // a's access cannot occur
				}
				live = true
			}
			if mayIntersect(a, b, ctx, ctxA) {
				return true
			}
		}
	}
	return false
}

// Interferes implements the paper's interference relation:
//
//	A interferes with B iff (A.w ∩ B.w ≠ ∅) or (A.w ∩ B.r ≠ ∅) or
//	(A.r ∩ B.w ≠ ∅)
//
// covering output-, flow-, and anti-dependencies. When two descriptors
// do not interfere, the computations they summarize are independent.
// The flow term is tried first: between program-ordered computations it
// is the one that usually holds.
func Interferes(a, b Descriptor, ctx symbolic.Conj) bool {
	return setsIntersect(a.Writes, b.Reads, ctx) ||
		setsIntersect(a.Writes, b.Writes, ctx) ||
		setsIntersect(a.Reads, b.Writes, ctx)
}

// FlowInterferes reports whether successor computation B has a flow
// interference from predecessor computation A: A.writes ∩ B.reads ≠ ∅.
// Unlike Interferes, this relation is not symmetric.
func FlowInterferes(a, b Descriptor, ctx symbolic.Conj) bool {
	return setsIntersect(a.Writes, b.Reads, ctx)
}
