// Package compile is the top of the compiler half of the system: it
// takes a parsed mini-Fortran program through the analysis pipeline,
// applies the split transformation between interfering top-level
// computations and the pipelining transformation to loops, and emits
// the two outputs the paper's compiler produces (§3.4): a transformed
// program (the FORTRAN-with-library-calls output) and a coarse-grained
// dataflow graph in the Delirium coordination language.
package compile

import (
	"fmt"
	"strings"

	"orchestra/internal/analysis"
	"orchestra/internal/delirium"
	"orchestra/internal/descriptor"
	"orchestra/internal/source"
	"orchestra/internal/split"
	"orchestra/internal/symbolic"
	"orchestra/internal/xform"
)

// Options controls the transformations.
type Options struct {
	// EnableFusion fuses legally fusable adjacent top-level loops
	// before splitting (the paper combines split with loop fusion and
	// interchange). Off by default: fusion can merge computations that
	// split would otherwise overlap.
	EnableFusion bool
	// EnableSplit applies split between interfering top-level
	// computations.
	EnableSplit bool
	// EnablePipeline applies the pipelining form of split to top-level
	// loops whose iterations are serialized by a carried dependence.
	EnablePipeline bool
	// PipelineDepth is the pipelining depth (default 1).
	PipelineDepth int
}

// DefaultOptions enables everything.
func DefaultOptions() Options {
	return Options{
		EnableSplit:    true,
		EnablePipeline: true,
		PipelineDepth:  1,
	}
}

// Unit is one schedulable computation of the output program.
type Unit struct {
	Name  string
	Stmts []source.Stmt
	Desc  descriptor.Descriptor
	// Role records provenance: "", "CI", "CD", "CM", "AI", "AD", "AM".
	Role string
	// Pipelined is set on the AD part of a pipelined loop: it carries
	// a dependence on its own previous activation.
	Pipelined bool
	// pipelineFrom names the computation this CD unit was split
	// against: its iterations correspond pointwise to that producer's,
	// so the dataflow edge between them may be pipelined (the paper's
	// third transformation: "pipeline iterations of A with
	// corresponding iterations of BD").
	pipelineFrom string
	// Tasks is the unit's symbolic trip count when it is (or derives
	// from) a loop, e.g. "n" or "n - 2"; empty when unknown.
	Tasks string
	// emit, when non-nil, is what the unit contributes to the
	// transformed source program instead of Stmts (the AI/AD/AM parts
	// of a pipelined loop are per-iteration operators in the graph but
	// must be re-wrapped into their loop in the source output).
	emit []source.Stmt
}

// Emit reports what the unit contributes to the transformed source
// program: its emit override when set (the AI part of a pipelined loop
// re-wraps the divided body into the original loop statement, while the
// AD/AM parts contribute nothing), else its statements. Runtime
// binders use the AI unit's emitted loop to recover the iteration
// space shared by all three parts of a pipelined loop.
func (u Unit) Emit() []source.Stmt {
	if u.emit != nil {
		return u.emit
	}
	return u.Stmts
}

// Output is the compilation result.
type Output struct {
	Program *source.Program
	Units   []Unit
	Graph   *delirium.Graph
	// Report logs the transformations applied, for humans.
	Report []string
}

// Compile runs the full pipeline over a program.
func Compile(p *source.Program, opts Options) (*Output, error) {
	if opts.PipelineDepth < 1 {
		opts.PipelineDepth = 1
	}
	out := &Output{}
	r := analysis.Analyze(p)
	if opts.EnableFusion {
		fused, n := xform.FuseAdjacent(r, p.Body)
		if n > 0 {
			out.Report = append(out.Report, fmt.Sprintf("fused %d adjacent loop pair(s)", n))
			// The fused program needs fresh analysis records.
			reparsed, err := source.Parse(source.Format(&source.Program{
				Name: p.Name, Decls: p.Decls, Body: fused}))
			if err != nil {
				return nil, fmt.Errorf("compile: refused to reparse after fusion: %v", err)
			}
			p = reparsed
			r = analysis.Analyze(p)
		}
	}
	prims := split.Decompose(r, p.Body)
	var newDecls []*source.Decl

	// Name the primitive computations C1..Cn (loops get their
	// induction variable in the name for readability) and annotate
	// loops with their symbolic trip counts — the §3.4 size annotations
	// the Delirium compiler turns into communication-cost code.
	units := make([]Unit, len(prims))
	for i, pr := range prims {
		name := fmt.Sprintf("c%d", i+1)
		tasks := ""
		if pr.IsLoop {
			name = fmt.Sprintf("c%d_%s", i+1, pr.Loop().Var)
			tasks = tripCount(r, pr.Loop())
		}
		units[i] = Unit{Name: name, Stmts: pr.Stmts, Desc: pr.Desc, Tasks: tasks}
	}

	// Split each computation against its interfering predecessor.
	if opts.EnableSplit {
		var result []Unit
		for i := 0; i < len(units); i++ {
			u := units[i]
			// Only a loop can be divided: a primitive of any other kind
			// lands whole in CI or whole in CD, so Split cannot apply.
			if _, loop := singleLoop(u); !loop || len(result) == 0 {
				result = append(result, u)
				continue
			}
			prev := result[len(result)-1]
			if prev.Role == "CM" && len(result) >= 3 {
				// Compare against the dependent part of the previous
				// split rather than its merge.
				prev = result[len(result)-2]
			}
			if !descriptor.Interferes(prev.Desc, u.Desc, nil) {
				result = append(result, u)
				continue
			}
			res := split.Split(r, u.Stmts, prev.Desc, r.SSA.Ctx[u.Stmts[0]])
			if !res.Applied() {
				result = append(result, u)
				continue
			}
			newDecls = append(newDecls, res.NewDecls...)
			out.Report = append(out.Report, fmt.Sprintf(
				"split %s against %s: %d loop split(s), categories %v",
				u.Name, prev.Name, res.LoopSplits, res.Categories))
			result = append(result,
				Unit{Name: u.Name + "_i", Stmts: res.Independent, Desc: res.IndependentDesc,
					Role: "CI", Tasks: u.Tasks},
				Unit{Name: u.Name + "_d", Stmts: res.Dependent, Desc: res.DependentDesc,
					Role: "CD", Tasks: u.Tasks, pipelineFrom: baseName(prev.Name)})
			if len(res.Merge) > 0 {
				result = append(result, Unit{Name: u.Name + "_m", Stmts: res.Merge,
					Desc: mergeDesc(r, res.Merge), Role: "CM"})
			}
		}
		units = result
	}

	// Pipeline the loops that remain whole.
	if opts.EnablePipeline {
		var result []Unit
		for _, u := range units {
			loop, ok := singleLoop(u)
			if !ok || u.Role != "" {
				result = append(result, u)
				continue
			}
			pres, ok := split.Pipeline(r, loop, opts.PipelineDepth)
			if !ok {
				result = append(result, u)
				continue
			}
			newDecls = append(newDecls, pres.NewDecls...)
			out.Report = append(out.Report, fmt.Sprintf(
				"pipeline %s at depth %d: privatized %v, %d inner loop split(s)",
				u.Name, pres.Depth, pres.Privatized, pres.LoopSplits))
			// The pipelined loop is re-emitted with its body divided
			// into AI / AD / AM, wrapped back into the loop for the
			// transformed source; the graph records the carried
			// dependence on AD. The loop statement itself is attached
			// to the AI unit's source contribution.
			body := append(append(append([]source.Stmt{}, pres.AI...), pres.AD...), pres.AM...)
			newLoop := source.CloneStmt(loop).(*source.Do)
			newLoop.Body = body
			result = append(result,
				Unit{Name: u.Name + "_ai", Stmts: pres.AI, Desc: u.Desc, Role: "AI",
					Tasks: u.Tasks, emit: []source.Stmt{newLoop}},
				Unit{Name: u.Name + "_ad", Stmts: pres.AD, Desc: u.Desc, Role: "AD",
					Tasks: u.Tasks, Pipelined: true, emit: []source.Stmt{}},
				Unit{Name: u.Name + "_am", Stmts: append([]source.Stmt{}, pres.AM...),
					Desc: u.Desc, Role: "AM", Tasks: u.Tasks, emit: []source.Stmt{}})
		}
		units = result
	}
	out.Units = units

	// Transformed program: units in order, plus the declarations the
	// transformations introduced.
	tp := &source.Program{Name: p.Name}
	tp.Decls = append(tp.Decls, p.Decls...)
	tp.Decls = append(tp.Decls, newDecls...)
	for _, u := range units {
		if u.emit != nil {
			tp.Body = append(tp.Body, u.emit...)
			continue
		}
		tp.Body = append(tp.Body, u.Stmts...)
	}
	out.Program = tp

	// Dataflow graph: one node per unit; an edge wherever an earlier
	// unit interferes with a later one (a flow, anti or output
	// dependence, decided by one Interferes per pair), which both
	// orders them and annotates the communication.
	g := delirium.NewGraph(p.Name)
	for _, u := range units {
		node := &delirium.Node{Name: u.Name, Kind: delirium.Par, Tasks: u.Tasks, Comment: u.Role}
		if err := g.AddNode(node); err != nil {
			return nil, err
		}
	}
	// Each unit's base name and blocks, worked out once.
	base := make([]string, len(units))
	blocks := make([]map[symbolic.Name]bool, len(units))
	for i, u := range units {
		base[i], blocks[i] = baseName(u.Name), u.Desc.Blocks()
	}
	acc := newAccessSets(units)
	for i := range units {
		for j := i + 1; j < len(units); j++ {
			// Both came from splitting the same computation (cN_i /
			// cN_d / cN_m or _ai/_ad/_am).
			sameGroup := base[i] == base[j] && base[i] != units[i].Name
			if sameGroup &&
				((units[i].Role == "CI" && units[j].Role == "CD") ||
					(units[i].Role == "AI" && units[j].Role == "AD")) {
				// The independent and dependent halves of a split run
				// concurrently by construction; their ordering is
				// resolved through the merge part.
				continue
			}
			if acc.meet(i, j) && descriptor.Interferes(units[i].Desc, units[j].Desc, nil) {
				pipelined := units[j].Pipelined && sameGroup
				// The third transformation: a CD unit consumes its
				// producer's per-iteration output incrementally. The
				// split records only that the units interfere; the edge
				// may be pipelined only when the consumer's accesses are
				// provably pointwise against the producer's writes —
				// e.g. a consumer that reads the producer's whole output
				// vector in every iteration must wait for all of it.
				chain := false
				if units[j].pipelineFrom != "" && units[j].pipelineFrom == base[i] &&
					pointwisePipelined(units[i], units[j]) {
					pipelined = true
					// The stronger proof — every consumer access at exactly
					// the current index, no backward offsets — additionally
					// licenses cache chaining (the runtime may run consumer
					// task i immediately after producer task i).
					chain = pointwiseChain(units[i], units[j])
				}
				g.AddEdge(&delirium.Edge{
					From: units[i].Name, To: units[j].Name,
					Bytes: int64(sharedBytes(units[i].Desc, blocks[j])), PerTask: true,
					Pipelined: pipelined, Chain: chain,
				})
			}
		}
		if units[i].Pipelined {
			g.AddEdge(&delirium.Edge{From: units[i].Name, To: units[i].Name, Carried: true})
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("compile: generated graph invalid: %v", err)
	}
	out.Graph = g
	return out, nil
}

// accessSets holds each unit's written and read blocks as bit sets
// over every block the units touch, so a pair that shares no block is
// found to be independent without comparing a triple.
type accessSets struct {
	words         int
	writes, reads []uint64 // unit u's set is words [u*words, (u+1)*words)
}

func newAccessSets(units []Unit) accessSets {
	index := map[symbolic.Name]int{}
	for _, u := range units {
		for _, ts := range [][]descriptor.Triple{u.Desc.Writes, u.Desc.Reads} {
			for _, t := range ts {
				if _, ok := index[t.Block]; !ok {
					index[t.Block] = len(index)
				}
			}
		}
	}
	s := accessSets{words: (len(index) + 63) / 64}
	s.writes = make([]uint64, len(units)*s.words)
	s.reads = make([]uint64, len(units)*s.words)
	for u, unit := range units {
		for _, t := range unit.Desc.Writes {
			b := index[t.Block]
			s.writes[u*s.words+b/64] |= 1 << (b % 64)
		}
		for _, t := range unit.Desc.Reads {
			b := index[t.Block]
			s.reads[u*s.words+b/64] |= 1 << (b % 64)
		}
	}
	return s
}

// meet reports whether unit a writes a block unit b reads or writes, or
// reads one b writes: the block-level precondition of
// descriptor.Interferes(a, b).
func (s accessSets) meet(a, b int) bool {
	for k := 0; k < s.words; k++ {
		wa, ra := s.writes[a*s.words+k], s.reads[a*s.words+k]
		wb, rb := s.writes[b*s.words+k], s.reads[b*s.words+k]
		if wa&(wb|rb) != 0 || ra&wb != 0 {
			return true
		}
	}
	return false
}

// pointwisePipelined verifies the claim a pipelined edge makes: that
// task t of the consumer needs data only from tasks <= t of the
// producer, so the runtime may dispatch the consumer against a partial
// prefix of the producer's output. The check is structural and
// conservative. Both units must be single loops over identical
// iteration spaces; the producer must write no scalars; every producer
// write to an array must index one fixed dimension with exactly the
// producer's induction variable; and every consumer access to such an
// array must index that same dimension with the consumer's induction
// variable or that variable minus a non-negative constant. Anything
// else — a whole-array read under an inner loop, a forward offset, a
// computed subscript, a subroutine call — means prefix delivery could
// hand the consumer elements the producer has not written yet, so the
// edge stays an ordinary fully-ordered one.
func pointwisePipelined(prod, cons Unit) bool {
	return pointwiseAccess(prod, cons, prefixSafeIndex)
}

// pointwiseChain is pointwisePipelined's strict form: every consumer
// access to a produced array must sit at exactly the current index
// (iv, not iv - c), so consumer task i depends on producer task i
// alone. That is the proof delirium.Edge.Chain carries: the runtime
// may execute consumer chunk i immediately after producer chunk i on
// the same worker, while the produced elements are cache-resident. A
// backward offset is still prefix-safe — the edge pipelines — but
// chunk i would need elements of earlier chunks, which may already
// have left cache and, at chunk granularity, may not even be complete,
// so such edges stay on the prefix gate.
func pointwiseChain(prod, cons Unit) bool {
	return pointwiseAccess(prod, cons, exactIndex)
}

// pointwiseAccess is the shared walker behind pointwisePipelined and
// pointwiseChain; idxOK decides which consumer subscript forms are
// acceptable against the producer's induction dimension.
func pointwiseAccess(prod, cons Unit, idxOK func(source.Expr, string) bool) bool {
	pl, okp := singleLoop(prod)
	cl, okc := singleLoop(cons)
	if !okp || !okc || !sameIterSpace(pl, cl) {
		return false
	}
	// Producer side: map each written array to the dimension indexed by
	// the loop variable in all of its writes.
	prodDim := map[string]int{}
	safe := true
	source.WalkStmts(pl.Body, func(s source.Stmt) {
		switch s := s.(type) {
		case *source.Assign:
			switch lhs := s.LHS.(type) {
			case *source.Ident:
				// A scalar has no prefix: any consumer of it needs the
				// final value.
				safe = false
			case *source.ArrayRef:
				d := -1
				for k, ix := range lhs.Index {
					if id, ok := ix.(*source.Ident); ok && id.Name == pl.Var {
						d = k
						break
					}
				}
				if prev, seen := prodDim[lhs.Name]; d < 0 || (seen && prev != d) {
					safe = false
				} else {
					prodDim[lhs.Name] = d
				}
			}
		case *source.Do:
			if s.Var == pl.Var {
				safe = false // rebinding makes the subscript match meaningless
			}
		case *source.CallStmt:
			safe = false
		}
	})
	if !safe || len(prodDim) == 0 {
		return false
	}
	// Consumer side: every reference to a produced array, anywhere an
	// expression can appear (assignments, guards, conditions, inner
	// loop bounds), must stay at or behind the current iteration.
	check := func(e source.Expr) {
		source.WalkExpr(e, func(x source.Expr) {
			ar, ok := x.(*source.ArrayRef)
			if !ok {
				return
			}
			d, tracked := prodDim[ar.Name]
			if !tracked {
				return
			}
			if d >= len(ar.Index) || !idxOK(ar.Index[d], cl.Var) {
				safe = false
			}
		})
	}
	if cl.Where != nil {
		check(cl.Where)
	}
	source.WalkStmts(cl.Body, func(s source.Stmt) {
		switch s := s.(type) {
		case *source.Assign:
			check(s.LHS)
			check(s.RHS)
		case *source.Do:
			if s.Var == cl.Var {
				safe = false
			}
			for _, r := range s.Ranges {
				check(r.Lo)
				check(r.Hi)
				if r.Step != nil {
					check(r.Step)
				}
			}
			if s.Where != nil {
				check(s.Where)
			}
		case *source.If:
			check(s.Cond)
		case *source.CallStmt:
			safe = false
		}
	})
	return safe
}

// prefixSafeIndex reports whether a subscript expression is iv or
// iv - c for a non-negative integer constant c: the accessed element is
// then produced by a task at or before the same position.
func prefixSafeIndex(e source.Expr, iv string) bool {
	if id, ok := e.(*source.Ident); ok {
		return id.Name == iv
	}
	b, ok := e.(*source.Bin)
	if !ok || b.Op != "-" {
		return false
	}
	id, ok := b.L.(*source.Ident)
	if !ok || id.Name != iv {
		return false
	}
	n, ok := b.R.(*source.Num)
	return ok && !n.IsReal && n.Int >= 0
}

// exactIndex reports whether a subscript is exactly the induction
// variable: the strict form pointwiseChain requires.
func exactIndex(e source.Expr, iv string) bool {
	id, ok := e.(*source.Ident)
	return ok && id.Name == iv
}

// sameIterSpace reports whether two loops have structurally identical
// iteration spaces, so task t of one corresponds to task t of the
// other.
func sameIterSpace(a, b *source.Do) bool {
	if len(a.Ranges) != len(b.Ranges) {
		return false
	}
	for i := range a.Ranges {
		ra, rb := a.Ranges[i], b.Ranges[i]
		if !boundEqual(ra.Lo, rb.Lo) || !boundEqual(ra.Hi, rb.Hi) {
			return false
		}
		sa, sb := ra.Step, rb.Step
		if (sa == nil) != (sb == nil) || (sa != nil && !boundEqual(sa, sb)) {
			return false
		}
	}
	return true
}

// boundEqual is structural equality over the scalar expressions loop
// bounds are built from; any node kind it does not recognize compares
// unequal (conservative).
func boundEqual(a, b source.Expr) bool {
	switch a := a.(type) {
	case *source.Num:
		bn, ok := b.(*source.Num)
		if !ok || a.IsReal != bn.IsReal {
			return false
		}
		if a.IsReal {
			return a.Text == bn.Text
		}
		return a.Int == bn.Int
	case *source.Ident:
		bi, ok := b.(*source.Ident)
		return ok && a.Name == bi.Name
	case *source.Bin:
		bb, ok := b.(*source.Bin)
		return ok && a.Op == bb.Op && boundEqual(a.L, bb.L) && boundEqual(a.R, bb.R)
	case *source.Un:
		bu, ok := b.(*source.Un)
		return ok && a.Op == bu.Op && boundEqual(a.X, bu.X)
	}
	return false
}

// singleLoop reports whether a unit is exactly one do-loop.
func singleLoop(u Unit) (*source.Do, bool) {
	if len(u.Stmts) != 1 {
		return nil, false
	}
	d, ok := u.Stmts[0].(*source.Do)
	return d, ok
}

// baseName strips a split-part suffix (_i/_d/_m/_ai/_ad/_am).
func baseName(n string) string {
	if i := strings.LastIndex(n, "_"); i > 0 {
		switch n[i+1:] {
		case "i", "d", "m", "ai", "ad", "am":
			return n[:i]
		}
	}
	return n
}

// sharedBytes estimates the per-task data volume flowing between two
// units: 8 bytes per block a writes that the other unit touches
// (bBlocks, its descriptor's Blocks), and at least 8 — a coarse
// annotation; the Delirium compiler's runtime code refines it with
// runtime parameters.
func sharedBytes(a descriptor.Descriptor, bBlocks map[symbolic.Name]bool) int {
	shared := 0
	for _, w := range a.Writes {
		if bBlocks[w.Block] {
			shared++
		}
	}
	if shared == 0 {
		shared = 1
	}
	return 8 * shared
}

// tripCount renders a loop's symbolic trip count in source terms, or
// "" when it involves synthetic names or strides.
func tripCount(r *analysis.Result, loop *source.Do) string {
	env := r.SSA.InsideLoop[loop]
	def := r.SSA.Defs[env.Name(loop.Var)]
	if def == nil || len(def.Ranges) == 0 {
		return ""
	}
	total := symbolic.Const(0)
	for _, rg := range def.Ranges {
		if rg.Skip != 1 {
			return ""
		}
		total = total.Add(rg.End.Sub(rg.Start).AddConst(1))
	}
	// Render over program variable names.
	out := ""
	for _, nm := range total.Names() {
		d := r.SSA.Defs[nm]
		if d == nil || strings.HasPrefix(d.Var, "$") {
			return ""
		}
		coef := total.Coef(nm)
		term := d.Var
		if coef != 1 && coef != -1 {
			term = fmt.Sprintf("%d*%s", abs64c(coef), d.Var)
		}
		// Rendered without spaces: the annotation must survive the
		// whitespace-delimited graph encoding.
		switch {
		case out == "" && coef < 0:
			out = "-" + term
		case out == "":
			out = term
		case coef < 0:
			out += "-" + term
		default:
			out += "+" + term
		}
	}
	c := total.ConstPart()
	switch {
	case out == "":
		out = fmt.Sprintf("%d", c)
	case c > 0:
		out += fmt.Sprintf("+%d", c)
	case c < 0:
		out += fmt.Sprintf("-%d", c*-1)
	}
	return out
}

func abs64c(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// mergeDesc conservatively describes generated merge statements.
func mergeDesc(r *analysis.Result, stmts []source.Stmt) descriptor.Descriptor {
	var d descriptor.Descriptor
	source.WalkStmts(stmts, func(s source.Stmt) {
		if as, ok := s.(*source.Assign); ok {
			switch lhs := as.LHS.(type) {
			case *source.Ident:
				d.AddWrite(descriptor.ScalarTriple(symbolic.Name(lhs.Name)))
			case *source.ArrayRef:
				d.AddWrite(descriptor.ScalarTriple(symbolic.Name(lhs.Name)))
			}
			source.WalkExpr(as.RHS, func(x source.Expr) {
				switch x := x.(type) {
				case *source.Ident:
					d.AddRead(descriptor.ScalarTriple(symbolic.Name(x.Name)))
				case *source.ArrayRef:
					d.AddRead(descriptor.ScalarTriple(symbolic.Name(x.Name)))
				}
			})
		}
	})
	return d
}
