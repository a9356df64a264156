package split

import (
	"orchestra/internal/analysis"
	"orchestra/internal/descriptor"
	"orchestra/internal/source"
	"orchestra/internal/symbolic"
)

// The ReadLinked heuristic (§3.3.1): a ReadLinked computation moves to
// the independent set when the operations that must be replicated with
// it number at most replicationThreshold and the computation itself
// counts at least weightThreshold arithmetic operations (a syntactic
// stand-in for the paper's profile data).
const (
	replicationThreshold = 64
	weightThreshold      = 8
)

// Result is the outcome of splitting a computation C against a
// descriptor D: the three output computations CI, CD, CM.
type Result struct {
	// Independent (CI) does not interfere with D and may execute
	// concurrently with the computation D summarizes.
	Independent []source.Stmt
	// Dependent (CD) must respect the original ordering with respect
	// to D's computation.
	Dependent []source.Stmt
	// Merge (CM) runs after both CI and CD (reduction merges and
	// replicated post-processing).
	Merge []source.Stmt
	// NewDecls declares replicated scalars and privatized arrays the
	// transformation introduced.
	NewDecls []*source.Decl
	// IndependentDesc and DependentDesc summarize the two parts.
	IndependentDesc descriptor.Descriptor
	DependentDesc   descriptor.Descriptor
	// IndependentPrims and DependentPrims expose the per-primitive
	// partition (with descriptors) for callers, such as the pipeline
	// transformation, that route primitives further.
	IndependentPrims []Prim
	DependentPrims   []Prim
	// Categories records the categorization of the (post-loop-split)
	// primitives, for inspection and testing.
	Categories []Category
	// LoopSplits counts Bound loops whose iterations were divided.
	LoopSplits int
	// MovedReadLinked counts ReadLinked primitives moved to CI.
	MovedReadLinked int
}

// Applied reports whether the transformation exposed any concurrency:
// a non-empty independent part alongside a dependent part.
func (res *Result) Applied() bool {
	return len(res.Independent) > 0 && len(res.Dependent) > 0
}

// Split divides computation C (a statement list already analyzed as
// part of r's program) against descriptor d. ctx holds predicates known
// to hold where C executes.
func Split(r *analysis.Result, c []source.Stmt, d descriptor.Descriptor, ctx symbolic.Conj) *Result {
	return splitPrims(r, Decompose(r, c), d, ctx, nil)
}

// splitPrims runs the categorize → loop-split → recategorize → assign
// pipeline over an explicit primitive list. blockRenames maps array
// names to replacements the caller already applied to the primitives'
// descriptors (the pipeline transformation's privatization); loop-split
// descriptors are renamed consistently.
func splitPrims(r *analysis.Result, prims []Prim, d descriptor.Descriptor, ctx symbolic.Conj, blockRenames map[string]string) *Result {
	res := &Result{}
	uniq := 0

	cats := Categorize(prims, d, ctx)

	// Attempt to split the iterations of each Bound loop; replace a
	// split loop by its two halves and recategorize. The independent
	// half was separated precisely to move to CI; forceCI records that.
	var work []Prim
	forceCI := map[int]bool{}
	var reductionMerges []source.Stmt
	merged := false
	for i, p := range prims {
		if cats[i] == Bound && p.IsLoop {
			if ls, ok := trySplitLoopIterations(r, p.Loop(), d, ctx, &uniq); ok {
				indDesc, depDesc := ls.IndependentDesc, ls.DependentDesc
				for from, to := range blockRenames {
					indDesc = renameDescBlock(indDesc, from, to)
					depDesc = renameDescBlock(depDesc, from, to)
				}
				forceCI[len(work)] = true
				work = append(work,
					Prim{Stmts: ls.Independent, Desc: indDesc},
					Prim{Stmts: ls.Dependent, Desc: depDesc})
				reductionMerges = append(reductionMerges, ls.Merge...)
				res.NewDecls = append(res.NewDecls, ls.NewDecls...)
				res.LoopSplits++
				merged = true
				continue
			}
		}
		work = append(work, p)
	}
	if merged {
		cats = Categorize(work, d, ctx)
	} else {
		work = prims
	}
	res.Categories = cats

	// ReadLinked heuristic: move a ReadLinked primitive to CI when its
	// generator closure is cheap to replicate and the computation is
	// expensive enough to justify it.
	moveToCI := map[int]bool{}
	replicate := map[int]bool{}
	for i, cat := range cats {
		if cat != ReadLinked {
			continue
		}
		gens := generatorClosure(work, i, ctx)
		cost := 0
		for _, g := range gens {
			cost += opCount(work[g].Stmts)
		}
		if cost <= replicationThreshold && opCount(work[i].Stmts) >= weightThreshold {
			moveToCI[i] = true
			for _, g := range gens {
				replicate[g] = true
			}
			res.MovedReadLinked++
		}
	}

	// CI membership: Free primitives, forced loop halves, and moved
	// ReadLinked computations.
	inCI := map[int]bool{}
	for i := range work {
		if cats[i] == Free || forceCI[i] || moveToCI[i] {
			inCI[i] = true
		}
	}

	// CM membership: remaining primitives that rely on values now
	// computed in CI ("CD holds the rest of C, except for those
	// sub-computations that rely on values now computed in CI; the
	// remaining sub-computations ... are put into CM"). Values may flow
	// through other CM members, so iterate to a fixpoint.
	inCM := map[int]bool{}
	sources := append([]int{}, indicesOf(inCI)...)
	for changed := true; changed; {
		changed = false
		for i := range work {
			if inCI[i] || inCM[i] {
				continue
			}
			for _, s := range sources {
				// The work list is in program order (loop halves sit at
				// the original loop's position), so s < i gates flow.
				if s < i && descriptor.FlowInterferes(work[s].Desc, work[i].Desc, ctx) {
					inCM[i] = true
					sources = append(sources, i)
					changed = true
					break
				}
			}
		}
	}

	// Assemble the three parts in original program order. Reduction
	// merges precede CM primitives so merged scalars are final before
	// any CM consumer runs.
	res.Merge = append(res.Merge, reductionMerges...)
	for i, p := range work {
		cl := Prim{Stmts: source.CloneStmts(p.Stmts), Desc: p.Desc}
		switch {
		case inCI[i]:
			res.Independent = append(res.Independent, cl.Stmts...)
			res.IndependentDesc.Merge(p.Desc)
			res.IndependentPrims = append(res.IndependentPrims, cl)
			if replicate[i] {
				// Replicated generators also stay in CD for their
				// original consumers.
				cd := Prim{Stmts: source.CloneStmts(p.Stmts), Desc: p.Desc}
				res.Dependent = append(res.Dependent, cd.Stmts...)
				res.DependentDesc.Merge(p.Desc)
				res.DependentPrims = append(res.DependentPrims, cd)
			}
		case inCM[i]:
			res.Merge = append(res.Merge, cl.Stmts...)
		default:
			res.Dependent = append(res.Dependent, cl.Stmts...)
			res.DependentDesc.Merge(p.Desc)
			res.DependentPrims = append(res.DependentPrims, cl)
			if replicate[i] {
				ci := Prim{Stmts: source.CloneStmts(p.Stmts), Desc: p.Desc}
				res.Independent = append(res.Independent, ci.Stmts...)
				res.IndependentDesc.Merge(p.Desc)
				res.IndependentPrims = append(res.IndependentPrims, ci)
			}
		}
	}
	return res
}

// indicesOf returns the keys of a set in ascending order.
func indicesOf(set map[int]bool) []int {
	var out []int
	for i := range set {
		out = append(out, i)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// generatorClosure returns the indices of primitives from which prim i
// has a transitive flow interference — the computations that must be
// replicated to move i (§3.3.1: "every computation s from which r has a
// transitive flow interference must also be put in that set").
func generatorClosure(prims []Prim, i int, ctx symbolic.Conj) []int {
	var out []int
	inSet := map[int]bool{i: true}
	changed := true
	for changed {
		changed = false
		for j := range prims {
			if inSet[j] || j >= i {
				continue
			}
			for k := range inSet {
				if descriptor.FlowInterferes(prims[j].Desc, prims[k].Desc, ctx) {
					inSet[j] = true
					out = append(out, j)
					changed = true
					break
				}
			}
		}
	}
	return out
}

// opCount estimates the operation count of a statement list: the
// number of arithmetic and comparison nodes, with loop bodies weighted
// by a nominal trip factor when bounds are unknown.
func opCount(ss []source.Stmt) int {
	total := 0
	var exprOps func(e source.Expr) int
	exprOps = func(e source.Expr) int {
		n := 0
		source.WalkExpr(e, func(x source.Expr) {
			switch x.(type) {
			case *source.Bin, *source.Un, *source.FuncCall:
				n++
			}
		})
		return n
	}
	source.WalkStmts(ss, func(s source.Stmt) {
		switch s := s.(type) {
		case *source.Assign:
			total += 1 + exprOps(s.RHS) + exprOps(s.LHS)
		case *source.If:
			total += exprOps(s.Cond)
		case *source.Do:
			total += 2 // loop control
		case *source.CallStmt:
			total += 4
		}
	})
	return total
}
