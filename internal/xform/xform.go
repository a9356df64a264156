// Package xform implements loop fusion, the classical source-to-source
// transformation the paper's compilation environment combines with
// split (§3: "Our compilation environment combines split with
// source-to-source transformations like loop fusion [Kuck et al.] and
// loop interchange [Allen & Kennedy] to expose additional
// concurrency"). Legality is decided with the same symbolic data
// descriptors the split transformation uses. The compiler calls
// FuseAdjacent; loop interchange is not implemented.
package xform

import (
	"orchestra/internal/analysis"
	"orchestra/internal/descriptor"
	"orchestra/internal/source"
	"orchestra/internal/symbolic"
)

// CanFuse reports whether two adjacent loops may legally fuse: they
// must have identical single-segment iteration ranges (syntactically
// equal bounds after symbolic translation), no where guards, the same
// step, and fusing must not reverse any dependence — iteration i of
// the second loop must not touch data that a LATER iteration j > i of
// the first loop writes (or write data a later iteration reads).
func CanFuse(r *analysis.Result, a, b *source.Do) bool {
	if a.Where != nil || b.Where != nil {
		return false
	}
	if len(a.Ranges) != 1 || len(b.Ranges) != 1 {
		return false
	}
	da, iva := r.DescribeIteration(a)
	db, ivb := r.DescribeIteration(b)
	ia := r.SSA.Defs[iva]
	ib := r.SSA.Defs[ivb]
	if ia == nil || ib == nil || len(ia.Ranges) != 1 || len(ib.Ranges) != 1 {
		return false
	}
	ra, rb := ia.Ranges[0], ib.Ranges[0]
	if !ra.Start.Equal(rb.Start) || !ra.End.Equal(rb.End) || ra.Skip != rb.Skip {
		return false
	}

	// Align the two iteration descriptors on one name and test the
	// fusion-preventing dependence: b's iteration i against a's
	// iteration j with j > i. (Dependences from a's earlier iterations
	// are preserved by fusion; only later-iteration interference
	// reverses direction.)
	later := symbolic.Name(string(iva) + "'later")
	dbAligned := db.Subst(ivb, symbolic.Var(iva))
	daLater := da.Subst(iva, symbolic.Var(later))
	ctx := symbolic.Conj{symbolic.CmpExpr(symbolic.Var(later), symbolic.GT, symbolic.Var(iva))}
	return !descriptor.Interferes(daLater, dbAligned, ctx)
}

// Fuse returns the fused loop (a's body followed by b's body under a's
// induction variable). Callers must have established legality with
// CanFuse. The second loop's induction variable is renamed to the
// first's.
func Fuse(a, b *source.Do) *source.Do {
	fused := source.CloneStmt(a).(*source.Do)
	bodyB := source.CloneStmts(b.Body)
	if b.Var != a.Var {
		renameScalar(bodyB, b.Var, a.Var)
	}
	fused.Body = append(fused.Body, bodyB...)
	return fused
}

// FuseAdjacent fuses runs of legally fusable adjacent loops in a
// statement list, returning the rewritten list and the number of
// fusions performed. The analysis result must describe the ORIGINAL
// program; fused loops are re-checked pairwise left to right.
func FuseAdjacent(r *analysis.Result, stmts []source.Stmt) ([]source.Stmt, int) {
	var out []source.Stmt
	fusions := 0
	for _, s := range stmts {
		cur, isLoop := s.(*source.Do)
		if !isLoop || len(out) == 0 {
			out = append(out, s)
			continue
		}
		prev, prevLoop := out[len(out)-1].(*source.Do)
		// Only fuse ORIGINAL adjacent loops (both must be analyzable);
		// a previously fused loop is not in the analysis tables, so
		// fusion chains re-use the leftmost original loop's records.
		if prevLoop && analyzable(r, prev) && analyzable(r, cur) && CanFuse(r, prev, cur) {
			out[len(out)-1] = Fuse(prev, cur)
			fusions++
			continue
		}
		out = append(out, s)
	}
	return out, fusions
}

// analyzable reports whether the loop belongs to the analyzed program.
func analyzable(r *analysis.Result, d *source.Do) bool {
	_, ok := r.SSA.InsideLoop[d]
	return ok
}

// renameScalar rewrites scalar identifier uses in a statement list.
func renameScalar(ss []source.Stmt, from, to string) {
	var fixExpr func(e source.Expr)
	fixExpr = func(e source.Expr) {
		source.WalkExpr(e, func(x source.Expr) {
			if id, ok := x.(*source.Ident); ok && id.Name == from {
				id.Name = to
			}
		})
	}
	source.WalkStmts(ss, func(s source.Stmt) {
		switch s := s.(type) {
		case *source.Assign:
			fixExpr(s.LHS)
			fixExpr(s.RHS)
		case *source.Do:
			for _, rg := range s.Ranges {
				fixExpr(rg.Lo)
				fixExpr(rg.Hi)
				fixExpr(rg.Step)
			}
			fixExpr(s.Where)
			if s.Var == from {
				s.Var = to
			}
		case *source.If:
			fixExpr(s.Cond)
		case *source.CallStmt:
			for _, a := range s.Args {
				fixExpr(a)
			}
		}
	})
}
