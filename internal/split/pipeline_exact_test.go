package split_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"orchestra/internal/analysis"
	"orchestra/internal/descriptor"
	"orchestra/internal/fuzz"
	"orchestra/internal/source"
	"orchestra/internal/split"
	"orchestra/internal/symbolic"
)

// pipelineFull is Pipeline without its two early returns: it
// privatizes, describes every body primitive, splits them all against
// the previous iteration and assembles AI, AD and AM whatever the
// categories say. It returns the result (nil when the loop has no
// induction range) and the body primitives' categories.
func pipelineFull(r *analysis.Result, loop *source.Do, depth int) (*split.PipelineResult, []split.Category) {
	iter, iv := r.DescribeIteration(loop)
	ind := r.SSA.Defs[iv]
	if ind == nil || len(ind.Ranges) == 0 {
		return nil, nil
	}
	res := &split.PipelineResult{Loop: loop, Privatized: map[string]string{}, Depth: depth}
	shifted := descriptor.ShiftIteration(iter, iv, int64(depth))
	privCount := 0
	for _, block := range analysis.WrittenBeforeRead(iter) {
		decl := r.Program.Decl(string(block))
		if decl == nil || !decl.IsArray() {
			continue
		}
		if !descriptor.Interferes(split.KeepBlock(iter, block), split.KeepBlock(shifted, block), nil) {
			continue
		}
		privCount++
		newName := fmt.Sprintf("%s%d", block, privCount)
		res.Privatized[string(block)] = newName
		res.NewDecls = append(res.NewDecls, &source.Decl{Name: newName, Type: decl.Type, Dims: decl.Dims})
	}
	var privNames []symbolic.Name
	for b := range res.Privatized {
		privNames = append(privNames, symbolic.Name(b))
	}
	dPrev := descriptor.ShiftIteration(split.RemoveBlocks(iter, privNames), iv, int64(depth))

	prims := split.Decompose(r, loop.Body)
	for i := range prims {
		for from, to := range res.Privatized {
			prims[i].Desc = split.RenameDescBlock(prims[i].Desc, from, to)
		}
	}
	ctx := r.SSA.BodyCtx[loop]
	cats := split.Categorize(prims, dPrev, ctx)
	inner := split.SplitPrims(r, prims, cats, dPrev, ctx, res.Privatized)
	res.LoopSplits = inner.LoopSplits
	res.NewDecls = append(res.NewDecls, inner.NewDecls...)
	res.AI, res.AD, res.AM = inner.Independent, inner.Dependent, inner.Merge
	for from, to := range res.Privatized {
		split.RenameBlock(res.AI, from, to)
		split.RenameBlock(res.AD, from, to)
		split.RenameBlock(res.AM, from, to)
	}
	return res, cats
}

// TestPipelineEarlyReturnsExact holds Pipeline to pipelineFull on every
// loop, at every nesting level, of the compiler's pinned corpus (the
// paper's Figure 1, the fuzzer's kept programs and 160 generator
// programs) at depths 1 and 2: Pipeline applies exactly when the full
// path's result is Applied, and then to the same AI, AD, AM and
// declarations. Its two early returns, a body of assignments alone and
// a body whose primitives are all Free, must each answer only where the
// full path is not Applied.
func TestPipelineEarlyReturnsExact(t *testing.T) {
	var loops, assigns, free, applied int
	for _, p := range pinnedCorpus(t) {
		for _, depth := range []int{1, 2} {
			prog, err := source.Parse(p.text)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			r := analysis.Analyze(prog)
			source.WalkStmts(prog.Body, func(s source.Stmt) {
				loop, ok := s.(*source.Do)
				if !ok {
					return
				}
				loops++
				want, cats := pipelineFull(r, loop, depth)
				got, ok := split.Pipeline(r, loop, depth)
				applies := want != nil && want.Applied()
				if ok != applies {
					t.Errorf("%s, loop %s at depth %d: Pipeline applies = %v, full path = %v\n%s",
						p.name, loop.Var, depth, ok, applies, source.FormatStmts([]source.Stmt{loop}, 0))
					return
				}
				switch {
				case applies:
					applied++
					if g, w := describe(got), describe(want); g != w {
						t.Errorf("%s, loop %s at depth %d: Pipeline gave\n%s\nfull path gave\n%s", p.name, loop.Var, depth, g, w)
					}
				case allAssigns(loop.Body):
					assigns++
				case allFree(cats):
					free++
				}
			})
		}
	}
	t.Logf("%d loops: %d pipelined, %d assignments only, %d all Free", loops, applied, assigns, free)
	if applied == 0 || assigns == 0 || free == 0 {
		t.Errorf("the corpus no longer exercises every path: %d pipelined, %d assignments only, %d all Free", applied, assigns, free)
	}
}

// describe renders a pipelining result for comparison.
func describe(p *split.PipelineResult) string {
	var decls []string
	for _, d := range p.NewDecls {
		decls = append(decls, fmt.Sprintf("%s %s %d", d.Name, d.Type, len(d.Dims)))
	}
	return fmt.Sprintf("privatized %v, %d loop splits, decls %v\nAI:\n%sAD:\n%sAM:\n%s",
		p.Privatized, p.LoopSplits, decls,
		source.FormatStmts(p.AI, 1), source.FormatStmts(p.AD, 1), source.FormatStmts(p.AM, 1))
}

func allAssigns(body []source.Stmt) bool {
	for _, s := range body {
		if _, ok := s.(*source.Assign); !ok {
			return false
		}
	}
	return true
}

func allFree(cats []split.Category) bool {
	for _, c := range cats {
		if c != split.Free {
			return false
		}
	}
	return true
}

// corpusProgram is one program of the pinned corpus, as source text.
type corpusProgram struct {
	name string
	text string
}

// pinnedCorpus is the corpus internal/compile's TestCorpusPinned
// compiles: figure 1, the fuzzer's kept programs, and 40 generator
// programs at each of 3, 10, 40 and 60 top-level statements.
func pinnedCorpus(t testing.TB) []corpusProgram {
	t.Helper()
	files, err := filepath.Glob("../fuzz/testdata/*/*.f")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	var progs []corpusProgram
	for _, f := range append([]string{"../../examples/figure1.f"}, files...) {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, corpusProgram{name: filepath.ToSlash(f), text: string(text)})
	}
	genSeed := uint64(1)
	for _, stmts := range []int{3, 10, 40, 60} {
		for k := 0; k < 40; k++ {
			for {
				p := fuzz.NewGen(genSeed, fuzz.GenConfig{MaxTopLoops: 2 * stmts}).Program()
				genSeed++
				if len(p.Body) >= stmts {
					p.Body = p.Body[:stmts]
					progs = append(progs, corpusProgram{name: fmt.Sprintf("gen/%d/%d", stmts, k), text: source.Format(p)})
					break
				}
			}
		}
	}
	return progs
}
