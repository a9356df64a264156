package split

import (
	"fmt"

	"orchestra/internal/analysis"
	"orchestra/internal/descriptor"
	"orchestra/internal/source"
	"orchestra/internal/symbolic"
)

// PipelineResult is the outcome of the pipelining application of split
// (§3.3.2, Figure 3): the loop body divided into an independent part AI
// (schedulable concurrently with the previous iteration), a dependent
// part AD (must wait for the previous iteration), and a merge part AM
// (runs after AI and AD of the same iteration).
type PipelineResult struct {
	Loop *source.Do

	AI []source.Stmt
	AD []source.Stmt
	AM []source.Stmt

	// Privatized maps original array names to their per-iteration
	// replacements (Figure 3's result → result1).
	Privatized map[string]string
	// NewDecls declares privatized arrays and replicated reduction
	// variables.
	NewDecls []*source.Decl
	// Depth is the pipelining depth: AI is independent of iterations
	// i-1 … i-Depth.
	Depth int
	// LoopSplits counts inner loops whose iterations were divided.
	LoopSplits int
}

// Applied reports whether pipelining exposed concurrency: a non-empty
// AI alongside dependent work.
func (p *PipelineResult) Applied() bool {
	return len(p.AI) > 0 && (len(p.AD) > 0 || len(p.AM) > 0)
}

// Pipeline applies split to the body of loop against the descriptor of
// its previous iteration. depth 1 pipelines against iteration i-1;
// larger depths compute the descriptor for iteration i-depth (§3.3.2:
// "if deeper pipelining is desired, the descriptor for iteration i-2
// can be computed, etc.").
//
// Two answers are known before the split runs, and Pipeline returns
// (nil, false) on them without building anything: a body of
// assignments alone is one primitive, which lands whole in AI or whole
// in AD; and a body none of whose primitives interferes with the
// previous iteration lands whole in AI. Neither can be Applied.
func Pipeline(r *analysis.Result, loop *source.Do, depth int) (*PipelineResult, bool) {
	if depth < 1 {
		depth = 1
	}
	if assignsOnly(loop.Body) {
		return nil, false
	}
	iter, iv := r.DescribeIteration(loop)
	ind := r.SSA.Defs[iv]
	if ind == nil || len(ind.Ranges) == 0 {
		return nil, false
	}

	res := &PipelineResult{Loop: loop, Privatized: map[string]string{}, Depth: depth}

	// Privatization: arrays written before read within one iteration
	// whose accesses collide across iterations are replicated
	// per-iteration, removing the false inter-iteration dependence
	// (Figure 3 renames result to result1).
	shifted := descriptor.ShiftIteration(iter, iv, int64(depth))
	privCount := 0
	for _, block := range analysis.WrittenBeforeRead(iter) {
		decl := r.Program.Decl(string(block))
		if decl == nil || !decl.IsArray() {
			continue // only arrays are privatized here
		}
		only := keepBlock(iter, block)
		onlyPrev := keepBlock(shifted, block)
		if !descriptor.Interferes(only, onlyPrev, nil) {
			continue // no cross-iteration collision; leave it alone
		}
		privCount++
		newName := fmt.Sprintf("%s%d", block, privCount)
		res.Privatized[string(block)] = newName
		nd := &source.Decl{Name: newName, Type: decl.Type, Dims: decl.Dims}
		res.NewDecls = append(res.NewDecls, nd)
	}

	// The previous iteration's descriptor: privatized blocks are
	// iteration-local, so they disappear from the cross-iteration
	// interference target. Shifting renames no block, so the shifted
	// iteration serves both steps.
	var privNames []symbolic.Name
	for b := range res.Privatized {
		privNames = append(privNames, symbolic.Name(b))
	}
	dPrev := removeBlocks(shifted, privNames)

	// Split the body primitives against the previous iteration, with
	// privatized blocks renamed in their descriptors.
	prims := Decompose(r, loop.Body)
	for i := range prims {
		for from, to := range res.Privatized {
			prims[i].Desc = renameDescBlock(prims[i].Desc, from, to)
		}
	}
	ctx := r.SSA.BodyCtx[loop]
	cats := Categorize(prims, dPrev, ctx)
	if !anyBound(cats) {
		return nil, false // every primitive is Free: all of it is AI
	}
	inner := splitPrims(r, prims, cats, dPrev, ctx, res.Privatized)
	res.LoopSplits = inner.LoopSplits
	res.NewDecls = append(res.NewDecls, inner.NewDecls...)

	// AI is the independent part; AD the dependent part (waits for the
	// previous iteration); AM the merge part (consumers of AI values
	// plus reduction merges), which runs after AI and AD.
	res.AI = inner.Independent
	res.AD = inner.Dependent
	res.AM = inner.Merge

	// Apply privatization renames to the generated code.
	for from, to := range res.Privatized {
		renameBlock(res.AI, from, to)
		renameBlock(res.AD, from, to)
		renameBlock(res.AM, from, to)
	}
	if !res.Applied() {
		return nil, false
	}
	return res, true
}

// assignsOnly reports whether a statement list is assignments alone,
// which Decompose makes one primitive.
func assignsOnly(body []source.Stmt) bool {
	for _, s := range body {
		if _, ok := s.(*source.Assign); !ok {
			return false
		}
	}
	return true
}

// anyBound reports whether any primitive interferes with the target
// directly; without one, Categorize finds nothing Linked either.
func anyBound(cats []Category) bool {
	for _, c := range cats {
		if c == Bound {
			return true
		}
	}
	return false
}

// keepBlock retains only the triples of one block.
func keepBlock(d descriptor.Descriptor, block symbolic.Name) descriptor.Descriptor {
	out := descriptor.Descriptor{}
	for _, t := range d.Reads {
		if t.Block == block {
			out.AddRead(t)
		}
	}
	for _, t := range d.Writes {
		if t.Block == block {
			out.AddWrite(t)
		}
	}
	return out
}
