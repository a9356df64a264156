// Package analysis runs the paper's symbolic analysis pipeline (§3.1)
// over a mini-Fortran program and summarizes the memory behaviour of
// statements as symbolic data descriptors (§3.2):
//
//  1. call-site analysis — call sites are grouped by name, aliasing
//     pattern, and constant arguments (callsites.go);
//  2. memory usage analysis — every statement is annotated with the
//     scalars and aggregates it reads and writes;
//  3. SSA conversion (internal/ssa);
//  4. aggregate propagation — values assigned through array elements
//     receive temporary names so scalar loads of the same element can
//     be resolved;
//  5. alias elimination — calls invalidate propagated values for the
//     aggregates they may write;
//  6. value propagation — branch conditions become assertions and
//     symbolic values flow from definitions to uses (internal/ssa).
//
// The Describe functions assemble descriptors at any granularity the
// split transformation needs: a single statement, a statement list, one
// loop iteration (induction variable unresolved), or a whole loop
// (iteration descriptor promoted over the induction range).
package analysis

import (
	"orchestra/internal/descriptor"
	"orchestra/internal/source"
	"orchestra/internal/ssa"
	"orchestra/internal/symbolic"
)

// Result is the analyzed form of a program. It remembers the
// descriptors it has derived, so it is not safe for concurrent use.
type Result struct {
	Program *source.Program
	SSA     *ssa.Info
	Calls   []CallSite

	// iterations remembers DescribeIteration per loop statement. The
	// key is the pointer SSA.AtStmt and SSA.InsideLoop are keyed by and
	// the value is a function of those records and the loop's subtree
	// alone, so an entry is exactly as fresh as they are: anything that
	// would invalidate it (a rewritten loop) needs a new Analyze for
	// the SSA records too.
	iterations map[*source.Do]iteration
	// loops remembers DescribeLoop per loop statement, on the same
	// terms.
	loops map[*source.Do]descriptor.Descriptor
}

// iteration is one remembered DescribeIteration result.
type iteration struct {
	desc descriptor.Descriptor
	iv   symbolic.Name
}

// Analyze runs the full pipeline.
func Analyze(p *source.Program) *Result {
	r := &Result{Program: p, SSA: ssa.Convert(p),
		iterations: map[*source.Do]iteration{}, loops: map[*source.Do]descriptor.Descriptor{}}
	r.Calls = collectCallSites(p, r.SSA)
	return r
}

// envOf returns the recorded environment before statement s.
func (r *Result) envOf(s source.Stmt) ssa.Env { return r.SSA.AtStmt[s] }

// DescribeStmt summarizes one statement. Loops are fully promoted over
// their induction ranges.
func (r *Result) DescribeStmt(s source.Stmt) descriptor.Descriptor {
	switch s := s.(type) {
	case *source.Assign:
		return r.describeAssign(s, r.envOf(s))
	case *source.CallStmt:
		return r.describeCall(s, r.envOf(s))
	case *source.If:
		return r.describeIf(s)
	case *source.Do:
		return r.DescribeLoop(s)
	}
	return descriptor.Descriptor{}
}

// DescribeStmts summarizes a statement list, eliminating reads covered
// by earlier writes in the same list (the paper's "reads known to be
// dominated by writes in the write set are not included").
func (r *Result) DescribeStmts(ss []source.Stmt) descriptor.Descriptor {
	var out descriptor.Descriptor
	for _, s := range ss {
		d := r.DescribeStmt(s)
		for _, rd := range d.Reads {
			if !coveredByAny(rd, out.Writes) {
				out.AddRead(rd)
			}
		}
		out.Writes = append(out.Writes, d.Writes...)
	}
	return out
}

// DescribeLoop promotes the iteration descriptor of a loop over its
// whole induction range. The triple slices returned are the caller's
// own.
func (r *Result) DescribeLoop(s *source.Do) descriptor.Descriptor {
	d, ok := r.loops[s]
	if !ok {
		d = r.describeLoop(s)
		r.loops[s] = d
	}
	return copyDesc(d)
}

func (r *Result) describeLoop(s *source.Do) descriptor.Descriptor {
	iter, iv := r.DescribeIteration(s)
	ind := r.SSA.Defs[iv]
	if ind == nil || len(ind.Ranges) == 0 {
		return iter // degenerate; keep the conservative iteration form
	}
	return descriptor.Promote(iter, iv, ind.Ranges)
}

// DescribeIteration summarizes a single iteration of a loop: the body
// descriptor with the where-guard attached to every triple, plus the
// reads performed by the guard and the bound expressions themselves.
// The induction variable's SSA name is returned and remains unresolved
// in the descriptor, as split's independence test requires. The triple
// slices returned are the caller's own.
func (r *Result) DescribeIteration(s *source.Do) (descriptor.Descriptor, symbolic.Name) {
	it, ok := r.iterations[s]
	if !ok {
		it.desc, it.iv = r.describeIteration(s)
		r.iterations[s] = it
	}
	return copyDesc(it.desc), it.iv
}

// copyDesc gives a remembered descriptor's triples new slices, so the
// caller may filter or append to them.
func copyDesc(d descriptor.Descriptor) descriptor.Descriptor {
	return descriptor.Descriptor{
		Reads:  append([]descriptor.Triple(nil), d.Reads...),
		Writes: append([]descriptor.Triple(nil), d.Writes...),
	}
}

func (r *Result) describeIteration(s *source.Do) (descriptor.Descriptor, symbolic.Name) {
	env := r.SSA.InsideLoop[s]
	iv := env.Name(s.Var)

	body := r.DescribeStmts(s.Body)

	// The where guard conditions every access of the body.
	if s.Where != nil {
		if preds, ok := r.SSA.TranslatePred(s.Where, env); ok {
			for i := range body.Reads {
				body.Reads[i] = body.Reads[i].WithGuard(preds)
			}
			for i := range body.Writes {
				body.Writes[i] = body.Writes[i].WithGuard(preds)
			}
		}
		// Evaluating the guard reads its operands unconditionally.
		guardReads := descriptor.Descriptor{}
		r.addExprReads(&guardReads, s.Where, env)
		body.Reads = append(body.Reads, guardReads.Reads...)
	}

	// Bound expressions are evaluated on loop entry.
	outerEnv, ok := r.SSA.AtStmt[s]
	if !ok {
		outerEnv = env
	}
	for _, rg := range s.Ranges {
		r.addExprReads(&body, rg.Lo, outerEnv)
		r.addExprReads(&body, rg.Hi, outerEnv)
		if rg.Step != nil {
			r.addExprReads(&body, rg.Step, outerEnv)
		}
	}
	return dedupe(body), iv
}

// describeAssign summarizes one assignment.
func (r *Result) describeAssign(s *source.Assign, env ssa.Env) descriptor.Descriptor {
	var d descriptor.Descriptor
	switch lhs := s.LHS.(type) {
	case *source.Ident:
		d.AddWrite(descriptor.ScalarTriple(symbolic.Name(lhs.Name)))
	case *source.ArrayRef:
		d.AddWrite(r.arrayTriple(lhs, env))
		// Subscript evaluation reads its operands.
		for _, ix := range lhs.Index {
			r.addExprReads(&d, ix, env)
		}
	}
	r.addExprReads(&d, s.RHS, env)
	return dedupe(d)
}

// describeCall summarizes a call statement conservatively: every
// aggregate argument is read and written whole; every scalar argument
// is read and written.
func (r *Result) describeCall(s *source.CallStmt, env ssa.Env) descriptor.Descriptor {
	var d descriptor.Descriptor
	for _, a := range s.Args {
		switch a := a.(type) {
		case *source.Ident:
			t := descriptor.ScalarTriple(symbolic.Name(a.Name))
			d.AddRead(t)
			d.AddWrite(t)
		case *source.ArrayRef:
			// Passing an element: read/write that element.
			t := r.arrayTriple(a, env)
			d.AddRead(t)
			d.AddWrite(t)
			for _, ix := range a.Index {
				r.addExprReads(&d, ix, env)
			}
		default:
			r.addExprReads(&d, a, env)
		}
	}
	return dedupe(d)
}

// describeIf summarizes a conditional: both arms, each guarded by the
// (translated) condition or its negation, plus the condition's reads.
func (r *Result) describeIf(s *source.If) descriptor.Descriptor {
	env := r.envOf(s)
	var d descriptor.Descriptor
	r.addExprReads(&d, s.Cond, env)

	condPreds, condOK := r.SSA.TranslatePred(s.Cond, env)

	thenD := r.DescribeStmts(s.Then)
	if condOK {
		thenD = guardAll(thenD, condPreds)
	}
	d.Merge(thenD)

	if len(s.Else) > 0 {
		elseD := r.DescribeStmts(s.Else)
		if condOK && len(condPreds) == 1 {
			elseD = guardAll(elseD, symbolic.Conj{condPreds[0].Negate()})
		}
		d.Merge(elseD)
	}
	return dedupe(d)
}

// arrayTriple builds the access triple for one array reference.
// Untranslatable subscripts widen to the whole block.
func (r *Result) arrayTriple(a *source.ArrayRef, env ssa.Env) descriptor.Triple {
	dims := make([]descriptor.Dim, len(a.Index))
	for i, ix := range a.Index {
		x, ok := r.SSA.TranslateExpr(ix, env)
		if !ok {
			return descriptor.ScalarTriple(symbolic.Name(a.Name)) // whole block
		}
		dims[i] = descriptor.PointDim(x)
	}
	return descriptor.Triple{Block: symbolic.Name(a.Name), Dims: dims}
}

// addExprReads appends read triples for every load performed by an
// expression. A reference to a live loop induction variable is not a
// memory read — its value is generated by the loop control, and it is
// already encoded symbolically in the access patterns.
func (r *Result) addExprReads(d *descriptor.Descriptor, e source.Expr, env ssa.Env) {
	source.WalkExpr(e, func(x source.Expr) {
		switch x := x.(type) {
		case *source.Ident:
			if name, ok := env.Lookup(x.Name); ok {
				if def := r.SSA.Defs[name]; def != nil && def.Kind == ssa.DefInduction {
					return
				}
			}
			d.AddRead(descriptor.ScalarTriple(symbolic.Name(x.Name)))
		case *source.ArrayRef:
			d.AddRead(r.arrayTriple(x, env))
		}
	})
}

// guardAll attaches a guard to every triple of a descriptor.
func guardAll(d descriptor.Descriptor, g symbolic.Conj) descriptor.Descriptor {
	out := descriptor.Descriptor{}
	for _, t := range d.Reads {
		out.AddRead(t.WithGuard(g))
	}
	for _, t := range d.Writes {
		out.AddWrite(t.WithGuard(g))
	}
	return out
}

// coveredByAny reports whether read triple rd is provably covered by
// one of the write triples (same block, unguarded, unmasked, and each
// dimension containing the read's).
func coveredByAny(rd descriptor.Triple, writes []descriptor.Triple) bool {
	for _, w := range writes {
		if covers(w, rd) {
			return true
		}
	}
	return false
}

func covers(w, rd descriptor.Triple) bool {
	if w.Block != rd.Block || len(w.Guard) > 0 {
		return false
	}
	if w.Whole() {
		return true
	}
	if rd.Whole() || len(rd.Dims) != len(w.Dims) {
		return false
	}
	for i := range w.Dims {
		wd, rdd := w.Dims[i], rd.Dims[i]
		if wd.Mask != nil {
			return false
		}
		// Every read range must be contained in some write range.
		for _, rr := range rdd.Ranges {
			contained := false
			for _, wr := range wd.Ranges {
				if symbolic.ProvesContained(rr, wr, nil) {
					contained = true
					break
				}
			}
			if !contained {
				return false
			}
		}
	}
	return true
}

// dedupe removes exact-duplicate triples, keeping descriptor sizes (and
// interference costs) proportional to the distinct accesses. It filters
// d's slices in place: every caller passes a descriptor it has just
// built. Triples are compared structurally, block name first, so no
// comparison renders anything; the lists are short (under sixteen
// triples everywhere in compile's pinned corpus), which is why there is
// no hash set in front of the scan.
func dedupe(d descriptor.Descriptor) descriptor.Descriptor {
	return descriptor.Descriptor{Reads: distinct(d.Reads), Writes: distinct(d.Writes)}
}

func distinct(ts []descriptor.Triple) []descriptor.Triple {
	out := ts[:0]
next:
	for _, t := range ts {
		for _, x := range out {
			if x.Equal(t) {
				continue next
			}
		}
		out = append(out, t)
	}
	return out
}

// WrittenBeforeRead returns the blocks a descriptor writes but never
// reads — candidates for privatization when split replicates a
// computation across pipeline stages (the result1 array of Figure 3).
func WrittenBeforeRead(d descriptor.Descriptor) []symbolic.Name {
	read := map[symbolic.Name]bool{}
	for _, t := range d.Reads {
		read[t.Block] = true
	}
	seen := map[symbolic.Name]bool{}
	var out []symbolic.Name
	for _, t := range d.Writes {
		if !read[t.Block] && !seen[t.Block] {
			seen[t.Block] = true
			out = append(out, t.Block)
		}
	}
	return out
}
