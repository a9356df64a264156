package split

import (
	"fmt"

	"orchestra/internal/analysis"
	"orchestra/internal/descriptor"
	"orchestra/internal/source"
	"orchestra/internal/ssa"
	"orchestra/internal/symbolic"
)

// LoopSplit is the result of splitting the iterations of one Bound
// loop into a set that does not interfere with the target descriptor
// and a set that still does (§3.3.1: "it is often possible to split the
// iterations of a loop in Bound into two sets").
type LoopSplit struct {
	// Independent is the restricted loop whose iterations provably do
	// not interfere with the target descriptor.
	Independent []source.Stmt
	// Dependent covers the remaining iterations.
	Dependent []source.Stmt
	// Merge holds reduction-merge statements (Figure 4's
	// sum = sum1 + sum2 step).
	Merge []source.Stmt
	// NewDecls declares replicated reduction variables.
	NewDecls []*source.Decl
	// IndependentDesc and DependentDesc are conservative descriptors
	// for the two parts (with replicated blocks renamed).
	IndependentDesc descriptor.Descriptor
	DependentDesc   descriptor.Descriptor
	// Kind records which strategy applied: "mask" or "exclude".
	Kind string
}

// reduction describes one recognized reduction variable in a loop body.
type reduction struct {
	Var string
	Op  string // "+" or "*"
}

// trySplitLoopIterations attempts to divide the iterations of loop into
// an independent and a dependent set with respect to d. ctx carries
// predicates known at the loop's position. uniq provides fresh variable
// suffixes for reduction replication.
func trySplitLoopIterations(r *analysis.Result, loop *source.Do, d descriptor.Descriptor, ctx symbolic.Conj, uniq *int) (*LoopSplit, bool) {
	iter, iv := r.DescribeIteration(loop)
	ind := r.SSA.Defs[iv]
	if ind == nil || len(ind.Ranges) == 0 || !anyCandidate(d, loop, iv, ind.Ranges) {
		return nil, false
	}

	// Legality: iterations must be independent, or dependent only
	// through recognized reductions.
	reds, ok := splittableIterations(r, loop, iter, iv)
	if !ok {
		return nil, false
	}
	// Reduction-variable accesses are iteration-local after
	// replication; drop them from the descriptors used for the
	// disjointness validation.
	iterNoRed := removeBlocks(iter, reductionBlocks(reds))

	// Candidate 1: complement of a mask appearing in d (Figure 2).
	if ls, ok := tryMaskComplement(r, loop, d, iterNoRed, iv, ind.Ranges, ctx, reds, uniq); ok {
		return ls, true
	}
	// Candidate 2: exclusion of a point index appearing in d (Figure 4).
	if ls, ok := tryPointExclusion(r, loop, d, iterNoRed, iv, ind.Ranges, ctx, reds, uniq); ok {
		return ls, true
	}
	return nil, false
}

// anyCandidate reports whether d offers a restriction for the loop's
// iterations: a masked dimension for tryMaskComplement or, when the
// loop runs over one unit-stride range, a point index free of iv for
// tryPointExclusion. Without one both fail whatever the legality
// proof says, so it is not attempted.
func anyCandidate(d descriptor.Descriptor, loop *source.Do, iv symbolic.Name, ranges []symbolic.Range) bool {
	points := len(loop.Ranges) == 1 && len(ranges) == 1 && ranges[0].Skip == 1
	for _, ts := range [][]descriptor.Triple{d.Writes, d.Reads} {
		for _, t := range ts {
			for _, dim := range t.Dims {
				if dim.Mask != nil {
					return true
				}
				if p, ok := dim.IsPoint(); ok && points && !p.Uses(iv) {
					return true
				}
			}
		}
	}
	return false
}

// splittableIterations reports whether the loop's iterations can be
// legally divided: any two distinct iterations must not interfere,
// except through scalar reduction variables (which are recognized and
// replicated). It returns the recognized reductions.
func splittableIterations(r *analysis.Result, loop *source.Do, iter descriptor.Descriptor, iv symbolic.Name) ([]reduction, bool) {
	reds, ok := detectReductions(r, loop)
	if !ok {
		return nil, false
	}
	clean := removeBlocks(iter, reductionBlocks(reds))
	ivP := symbolic.Name(string(iv) + "'")
	other := clean.Subst(iv, symbolic.Var(ivP))
	ctx := symbolic.Conj{symbolic.CmpExpr(symbolic.Var(iv), symbolic.NE, symbolic.Var(ivP))}
	if descriptor.Interferes(clean, other, ctx) {
		return nil, false
	}
	return reds, true
}

// detectReductions checks every loop-carried scalar of the loop: each
// must be updated only by associative self-updates (v = v + e or
// v = v * e with e free of v) and read nowhere else in the body. It
// reports ok=false when a loop-carried scalar defies that pattern.
//
// The scalars are taken in the order the body first assigns them, so
// the replicas' names, declarations, initialisations and merges are the
// same on every compile. A carried scalar the body never assigns is no
// reduction and can never disqualify the loop, so it is not visited.
func detectReductions(r *analysis.Result, loop *source.Do) ([]reduction, bool) {
	env := r.SSA.InsideLoop[loop]
	var reds []reduction
	for _, v := range assignedScalars(loop.Body) {
		name, ok := env.Lookup(v)
		if !ok || v == loop.Var {
			continue
		}
		def := r.SSA.Defs[name]
		if def == nil || def.Kind != ssa.DefPhi || def.Loop != loop {
			continue // not loop-carried here
		}
		op, ok := reductionOp(loop.Body, v)
		if !ok {
			return nil, false
		}
		if op != "" {
			reds = append(reds, reduction{Var: v, Op: op})
		}
	}
	return reds, true
}

// assignedScalars lists the scalars body assigns, in the order of their
// first assignment.
func assignedScalars(body []source.Stmt) []string {
	var names []string
	seen := map[string]bool{}
	source.WalkStmts(body, func(s source.Stmt) {
		if a, ok := s.(*source.Assign); ok {
			if id, ok := a.LHS.(*source.Ident); ok && !seen[id.Name] {
				seen[id.Name] = true
				names = append(names, id.Name)
			}
		}
	})
	return names
}

// reductionOp inspects every use of scalar v in body. It returns the
// single associative operator when v is a pure reduction variable; ""
// with ok=true when v is never touched (not actually carried here);
// and ok=false when v is used in a non-reduction way.
func reductionOp(body []source.Stmt, v string) (string, bool) {
	op := ""
	ok := true
	reads := 0
	updates := 0
	var checkReads func(e source.Expr)
	checkReads = func(e source.Expr) {
		source.WalkExpr(e, func(x source.Expr) {
			if id, isID := x.(*source.Ident); isID && id.Name == v {
				reads++
			}
		})
	}
	source.WalkStmts(body, func(s source.Stmt) {
		switch s := s.(type) {
		case *source.Assign:
			if id, isID := s.LHS.(*source.Ident); isID && id.Name == v {
				// Must be v = v op e or v = e op v (op associative).
				bin, isBin := s.RHS.(*source.Bin)
				if !isBin || (bin.Op != "+" && bin.Op != "*") {
					ok = false
					return
				}
				l, lIsV := bin.L.(*source.Ident)
				rr, rIsV := bin.R.(*source.Ident)
				var other source.Expr
				switch {
				case lIsV && l.Name == v:
					other = bin.R
				case rIsV && rr.Name == v:
					other = bin.L
				default:
					ok = false
					return
				}
				if op != "" && op != bin.Op {
					ok = false
					return
				}
				op = bin.Op
				updates++
				// The other operand must not read v.
				selfReads := 0
				source.WalkExpr(other, func(x source.Expr) {
					if id, isID := x.(*source.Ident); isID && id.Name == v {
						selfReads++
					}
				})
				if selfReads > 0 {
					ok = false
				}
				return
			}
			checkReads(s.RHS)
			if ar, isAR := s.LHS.(*source.ArrayRef); isAR {
				for _, ix := range ar.Index {
					checkReads(ix)
				}
			}
		case *source.Do:
			for _, rg := range s.Ranges {
				checkReads(rg.Lo)
				checkReads(rg.Hi)
				checkReads(rg.Step)
			}
			checkReads(s.Where)
		case *source.If:
			checkReads(s.Cond)
		case *source.CallStmt:
			for _, a := range s.Args {
				checkReads(a)
			}
		}
	})
	if !ok {
		return "", false
	}
	if updates == 0 {
		if reads > 0 {
			// Read-only carried scalar: not actually carried by
			// assignment; treat as non-reduction but legal.
			return "", true
		}
		return "", true
	}
	// Reads outside the updates (counted via checkReads) disqualify.
	if reads > 0 {
		return "", false
	}
	return op, true
}

func reductionBlocks(reds []reduction) []symbolic.Name {
	out := make([]symbolic.Name, len(reds))
	for i, rd := range reds {
		out[i] = symbolic.Name(rd.Var)
	}
	return out
}

// removeBlocks drops every triple touching one of the named blocks.
func removeBlocks(d descriptor.Descriptor, blocks []symbolic.Name) descriptor.Descriptor {
	drop := map[symbolic.Name]bool{}
	for _, b := range blocks {
		drop[b] = true
	}
	out := descriptor.Descriptor{}
	for _, t := range d.Reads {
		if !drop[t.Block] {
			out.AddRead(t)
		}
	}
	for _, t := range d.Writes {
		if !drop[t.Block] {
			out.AddWrite(t)
		}
	}
	return out
}

// guardIter attaches a predicate to every triple of an iteration
// descriptor.
func guardIter(d descriptor.Descriptor, p symbolic.Pred) descriptor.Descriptor {
	g := symbolic.Conj{p}
	out := descriptor.Descriptor{}
	for _, t := range d.Reads {
		out.AddRead(t.WithGuard(g))
	}
	for _, t := range d.Writes {
		out.AddWrite(t.WithGuard(g))
	}
	return out
}

// tryMaskComplement looks for a mask in d whose complement, imposed as
// an extra where-guard on the loop, removes all interference (the
// Figure 2 split of B into BI and BD).
func tryMaskComplement(r *analysis.Result, loop *source.Do, d descriptor.Descriptor, iter descriptor.Descriptor, iv symbolic.Name, ranges []symbolic.Range, ctx symbolic.Conj, reds []reduction, uniq *int) (*LoopSplit, bool) {
	var seen []symbolic.Pred
	for _, t := range append(append([]descriptor.Triple{}, d.Writes...), d.Reads...) {
		for _, dim := range t.Dims {
			if dim.Mask == nil || containsPred(seen, dim.Mask.Pred) {
				continue // a mask tried once gives the same answer again
			}
			seen = append(seen, dim.Mask.Pred)
			// Candidate restriction: the mask's complement at iv.
			pos := dim.Mask.Instantiate(symbolic.Var(iv))
			neg := pos.Negate()

			indepDesc := descriptor.Promote(guardIter(iter, neg), iv, ranges)
			if descriptor.Interferes(indepDesc, d, ctx) {
				continue
			}
			negSrc, ok := predToSource(r, neg)
			if !ok {
				continue
			}
			posSrc, ok := predToSource(r, pos)
			if !ok {
				continue
			}

			li := source.CloneStmt(loop).(*source.Do)
			li.Where = andWhere(loop.Where, negSrc)
			ld := source.CloneStmt(loop).(*source.Do)
			ld.Where = andWhere(loop.Where, posSrc)

			ls := &LoopSplit{
				Independent:     []source.Stmt{li},
				Dependent:       []source.Stmt{ld},
				IndependentDesc: indepDesc,
				DependentDesc:   descriptor.Promote(guardIter(iter, pos), iv, ranges),
				Kind:            "mask",
			}
			applyReductions(r, loop, ls, reds, uniq)
			return ls, true
		}
	}
	return nil, false
}

// tryPointExclusion looks for a point index P in d such that excluding
// iteration iv = P removes all interference (the Figure 4 split,
// producing the paper's "do i = 1,a-1 and a+1,n" form).
func tryPointExclusion(r *analysis.Result, loop *source.Do, d descriptor.Descriptor, iter descriptor.Descriptor, iv symbolic.Name, ranges []symbolic.Range, ctx symbolic.Conj, reds []reduction, uniq *int) (*LoopSplit, bool) {
	if len(loop.Ranges) != 1 || len(ranges) != 1 || ranges[0].Skip != 1 {
		return nil, false
	}
	var seen []symbolic.Expr
	for _, t := range append(append([]descriptor.Triple{}, d.Writes...), d.Reads...) {
		for _, dim := range t.Dims {
			p, isPoint := dim.IsPoint()
			if !isPoint || p.Uses(iv) || containsExpr(seen, p) {
				continue
			}
			seen = append(seen, p)

			// Restricted iteration space: [lo, P-1] and [P+1, hi].
			lo, hi := ranges[0].Start, ranges[0].End
			restricted := []symbolic.Range{
				symbolic.NewRange(lo, p.AddConst(-1)),
				symbolic.NewRange(p.AddConst(1), hi),
			}
			indepDesc := descriptor.Promote(iter, iv, restricted)
			if descriptor.Interferes(indepDesc, d, ctx) {
				continue
			}
			pSrc, ok := exprToSource(r, p)
			if !ok {
				continue
			}
			pm1, ok1 := exprToSource(r, p.AddConst(-1))
			pp1, ok2 := exprToSource(r, p.AddConst(1))
			if !ok1 || !ok2 {
				continue
			}

			li := source.CloneStmt(loop).(*source.Do)
			li.Ranges = []source.DoRange{
				{Lo: source.CloneExpr(loop.Ranges[0].Lo), Hi: pm1},
				{Lo: pp1, Hi: source.CloneExpr(loop.Ranges[0].Hi)},
			}

			// Dependent part: the single iteration iv = P, guarded so it
			// executes only when P lies within the original bounds.
			ld := source.CloneStmt(loop).(*source.Do)
			ld.Ranges = []source.DoRange{{Lo: source.CloneExpr(pSrc), Hi: source.CloneExpr(pSrc)}}
			guard := &source.If{
				Cond: &source.Bin{
					Op: "&&",
					L:  &source.Bin{Op: ">=", L: source.CloneExpr(pSrc), R: source.CloneExpr(loop.Ranges[0].Lo)},
					R:  &source.Bin{Op: "<=", L: source.CloneExpr(pSrc), R: source.CloneExpr(loop.Ranges[0].Hi)},
				},
				Then: []source.Stmt{ld},
			}

			ls := &LoopSplit{
				Independent:     []source.Stmt{li},
				Dependent:       []source.Stmt{guard},
				IndependentDesc: indepDesc,
				DependentDesc:   descriptor.Promote(iter, iv, []symbolic.Range{symbolic.Point(p)}),
				Kind:            "exclude",
			}
			applyReductions(r, loop, ls, reds, uniq)
			return ls, true
		}
	}
	return nil, false
}

func containsPred(ps []symbolic.Pred, p symbolic.Pred) bool {
	for _, x := range ps {
		if x.Equal(p) {
			return true
		}
	}
	return false
}

func containsExpr(es []symbolic.Expr, e symbolic.Expr) bool {
	for _, x := range es {
		if x.Equal(e) {
			return true
		}
	}
	return false
}

// applyReductions replicates each reduction variable into per-part
// copies, initializes them to the operator identity, renames the loop
// bodies, and emits the final merge (Figure 4: sum = sum1 + sum2).
func applyReductions(r *analysis.Result, loop *source.Do, ls *LoopSplit, reds []reduction, uniq *int) {
	for _, rd := range reds {
		*uniq++
		n1 := fmt.Sprintf("%s_i%d", rd.Var, *uniq)
		n2 := fmt.Sprintf("%s_d%d", rd.Var, *uniq)
		identity := int64(0)
		if rd.Op == "*" {
			identity = 1
		}
		decl := r.Program.Decl(rd.Var)
		typ := source.Real
		if decl != nil {
			typ = decl.Type
		}
		ls.NewDecls = append(ls.NewDecls,
			&source.Decl{Name: n1, Type: typ},
			&source.Decl{Name: n2, Type: typ})

		renameBlock(ls.Independent, rd.Var, n1)
		renameBlock(ls.Dependent, rd.Var, n2)
		ls.IndependentDesc = renameDescBlock(ls.IndependentDesc, rd.Var, n1)
		ls.DependentDesc = renameDescBlock(ls.DependentDesc, rd.Var, n2)

		// Initializations run before the parts; prepend them.
		init1 := &source.Assign{LHS: &source.Ident{Name: n1}, RHS: &source.Num{Int: identity}}
		init2 := &source.Assign{LHS: &source.Ident{Name: n2}, RHS: &source.Num{Int: identity}}
		ls.Independent = append([]source.Stmt{init1}, ls.Independent...)
		ls.Dependent = append([]source.Stmt{init2}, ls.Dependent...)
		ls.IndependentDesc.AddWrite(descriptor.ScalarTriple(symbolic.Name(n1)))
		ls.DependentDesc.AddWrite(descriptor.ScalarTriple(symbolic.Name(n2)))

		// Merge: v = (v op n1) op n2.
		merge := &source.Assign{
			LHS: &source.Ident{Name: rd.Var},
			RHS: &source.Bin{
				Op: rd.Op,
				L: &source.Bin{
					Op: rd.Op,
					L:  &source.Ident{Name: rd.Var},
					R:  &source.Ident{Name: n1},
				},
				R: &source.Ident{Name: n2},
			},
		}
		ls.Merge = append(ls.Merge, merge)
	}
}

// renameDescBlock renames a block throughout a descriptor.
func renameDescBlock(d descriptor.Descriptor, from, to string) descriptor.Descriptor {
	out := descriptor.Descriptor{}
	f, t := symbolic.Name(from), symbolic.Name(to)
	for _, tr := range d.Reads {
		if tr.Block == f {
			tr.Block = t
		}
		out.AddRead(tr)
	}
	for _, tr := range d.Writes {
		if tr.Block == f {
			tr.Block = t
		}
		out.AddWrite(tr)
	}
	return out
}
