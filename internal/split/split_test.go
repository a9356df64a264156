package split

import (
	"strings"
	"testing"

	"orchestra/internal/analysis"
	"orchestra/internal/descriptor"
	"orchestra/internal/source"
)

// figure1 is the paper's running example (Figures 1–3): loop A updates
// masked columns of q; loop B consumes q into output.
const figure1 = `
program sample
  integer n
  integer mask(n)
  real result(n), q(n, n), output(n, n), w(n)

  do col = 1, n where (mask(col) != 0)
    do i = 1, n
      result(i) = 0
      do j = 1, n
        result(i) = result(i) + q(j, i) * w(j)
      end do
    end do
    do i = 1, n
      q(i, col) = result(i)
    end do
  end do

  do i = 1, n
    do j = 1, n
      output(j, i) = f(q(j, i))
    end do
  end do
end
`

// figure4 is the paper's simple split example: G updates column a of X;
// H sums all of X.
const figure4 = `
program fig4
  integer n, a
  real x(n, n), y(n), sum

  do i = 1, n
    x(a, i) = x(a, i) + y(i)
  end do

  do i = 1, n
    do j = 1, n
      sum = sum + x(i, j)
    end do
  end do
end
`

func analyze(t *testing.T, src string) *analysis.Result {
	t.Helper()
	p, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return analysis.Analyze(p)
}

func TestDecompose(t *testing.T) {
	r := analyze(t, `
program p
  integer a, b, n
  real x(n)
  a = 1
  b = 2
  do i = 1, n
    x(i) = 0
  end do
  a = 3
  call f(a)
  b = 4
end
`)
	prims := Decompose(r, r.Program.Body)
	// run(a=1,b=2), loop, run(a=3), call, run(b=4)
	if len(prims) != 5 {
		t.Fatalf("prims = %d, want 5", len(prims))
	}
	if len(prims[0].Stmts) != 2 || prims[0].IsLoop {
		t.Fatalf("prim 0 = %+v", prims[0])
	}
	if !prims[1].IsLoop {
		t.Fatal("prim 1 should be a loop")
	}
	if prims[1].Loop() == nil {
		t.Fatal("Loop() nil for loop prim")
	}
	if prims[0].Loop() != nil {
		t.Fatal("Loop() non-nil for block prim")
	}
}

func TestCategorizeFigure5(t *testing.T) {
	// The paper's Figure 5 structure, expressed with arrays:
	//   W writes x (the split target descriptor).
	//   B reads x, writes sum            -> Bound
	//   A writes y (used by B and C)     -> GenerateLinked
	//   C reads y, writes c              -> ReadLinked
	//   D reads sum, writes d            -> NeedsBound
	//   E writes e (unrelated)           -> Free
	r := analyze(t, `
program fig5
  integer n
  real x(n), y(n), c(n), d(n), e(n), sum

  do i = 1, n
    y(i) = f(i)
  end do
  sum = 0
  do i = 1, n
    sum = sum + x(i) * y(i)
  end do
  do i = 1, n
    c(i) = y(i) * 2
  end do
  do i = 1, n
    d(i) = sum
  end do
  do i = 1, n
    e(i) = 7
  end do
end
`)
	// W's descriptor: writes all of x.
	var w descriptor.Descriptor
	w.AddWrite(descriptor.ScalarTriple("x"))

	prims := Decompose(r, r.Program.Body)
	cats := Categorize(prims, w, nil)

	// prims: [loop y] [sum=0] [loop sum] [loop c] [loop d] [loop e]
	if len(prims) != 6 {
		t.Fatalf("prims = %d", len(prims))
	}
	want := []Category{GenerateLinked, GenerateLinked, Bound, ReadLinked, NeedsBound, Free}
	for i, c := range cats {
		if c != want[i] {
			t.Errorf("prim %d: %v, want %v", i, c, want[i])
		}
	}
}

func TestCategorizeAllFree(t *testing.T) {
	r := analyze(t, `
program p
  integer n
  real a(n), b(n)
  do i = 1, n
    a(i) = 1
  end do
  do i = 1, n
    b(i) = 2
  end do
end
`)
	var d descriptor.Descriptor
	d.AddWrite(descriptor.ScalarTriple("z"))
	prims := Decompose(r, r.Program.Body)
	for i, c := range Categorize(prims, d, nil) {
		if c != Free {
			t.Errorf("prim %d: %v, want Free", i, c)
		}
	}
}

func TestTransitiveChainLinked(t *testing.T) {
	// a -> b -> c -> target: the whole chain is Linked, discovered via
	// iteration to fixpoint.
	r := analyze(t, `
program p
  integer n
  real x(n), a(n), b(n), c(n)
  do i = 1, n
    a(i) = 1
  end do
  do i = 1, n
    b(i) = a(i)
  end do
  do i = 1, n
    c(i) = b(i)
  end do
  do i = 1, n
    x(i) = c(i)
  end do
end
`)
	var d descriptor.Descriptor
	d.AddRead(descriptor.ScalarTriple("x"))
	prims := Decompose(r, r.Program.Body)
	cats := Categorize(prims, d, nil)
	if cats[3] != Bound {
		t.Fatalf("x-writer = %v, want Bound", cats[3])
	}
	for i := 0; i < 3; i++ {
		if cats[i] == Free || cats[i] == Bound {
			t.Errorf("prim %d = %v, want a Linked category", i, cats[i])
		}
	}
}

func TestFigure4SplitWithReduction(t *testing.T) {
	r := analyze(t, figure4)
	g := r.Program.Body[0].(*source.Do)
	h := r.Program.Body[1].(*source.Do)
	dg := r.DescribeLoop(g)

	res := Split(r, []source.Stmt{h}, dg, nil)
	if !res.Applied() {
		t.Fatalf("split not applied; cats=%v", res.Categories)
	}
	if res.LoopSplits != 1 {
		t.Fatalf("loop splits = %d", res.LoopSplits)
	}
	// The independent loop must exclude column a:
	// "do i = 1, a - 1 and a + 1, n".
	ci := source.FormatStmts(res.Independent, 0)
	if !strings.Contains(ci, "a - 1 and a + 1, n") {
		t.Fatalf("independent part:\n%s", ci)
	}
	// The reduction variable must be replicated and merged.
	if len(res.Merge) == 0 {
		t.Fatal("no merge statements")
	}
	merge := source.FormatStmts(res.Merge, 0)
	if !strings.Contains(merge, "sum = ") {
		t.Fatalf("merge:\n%s", merge)
	}
	if len(res.NewDecls) != 2 {
		t.Fatalf("new decls = %d, want 2 replicated scalars", len(res.NewDecls))
	}
	// The independent part must not interfere with G.
	if descriptor.Interferes(res.IndependentDesc, dg, nil) {
		t.Fatalf("CI still interferes with G:\n%s", res.IndependentDesc)
	}
	// The dependent part handles exactly iteration a, under a bounds
	// guard.
	cd := source.FormatStmts(res.Dependent, 0)
	if !strings.Contains(cd, "if (a >= 1 && a <= n)") {
		t.Fatalf("dependent part:\n%s", cd)
	}
}

func TestFigure2MaskSplit(t *testing.T) {
	r := analyze(t, figure1)
	loopA := r.Program.Body[0].(*source.Do)
	loopB := r.Program.Body[1].(*source.Do)
	dA := r.DescribeLoop(loopA)

	res := Split(r, []source.Stmt{loopB}, dA, nil)
	if !res.Applied() {
		t.Fatalf("split not applied; cats=%v\ndA:\n%s", res.Categories, dA)
	}
	ci := source.FormatStmts(res.Independent, 0)
	cd := source.FormatStmts(res.Dependent, 0)
	// BI processes columns the mask excludes; BD the rest.
	if !strings.Contains(ci, "mask(i) == 0") {
		t.Fatalf("BI:\n%s", ci)
	}
	if !strings.Contains(cd, "mask(i) != 0") {
		t.Fatalf("BD:\n%s", cd)
	}
	// BI must not interfere with A.
	if descriptor.Interferes(res.IndependentDesc, dA, nil) {
		t.Fatalf("BI interferes with A:\n%s", res.IndependentDesc)
	}
}

func TestFigure3Pipeline(t *testing.T) {
	r := analyze(t, figure1)
	loopA := r.Program.Body[0].(*source.Do)

	res, ok := Pipeline(r, loopA, 1)
	if !ok {
		t.Fatal("pipeline not applied")
	}
	// result must be privatized (Figure 3's result1).
	if res.Privatized["result"] == "" {
		t.Fatalf("result not privatized: %v", res.Privatized)
	}
	ai := source.FormatStmts(res.AI, 0)
	ad := source.FormatStmts(res.AD, 0)
	am := source.FormatStmts(res.AM, 0)

	// AI computes all but the column written by the previous iteration:
	// "do i = 1, col - 1 - 1 and col - 1 + 1, n" (col-2 and col in the
	// paper's hand-simplified form).
	if !strings.Contains(ai, "and") || !strings.Contains(ai, "col") {
		t.Fatalf("AI:\n%s", ai)
	}
	if !strings.Contains(ai, res.Privatized["result"]) {
		t.Fatalf("AI does not use privatized array:\n%s", ai)
	}
	// AD computes the missing column (the previous iteration's).
	if !strings.Contains(ad, "col - 1") {
		t.Fatalf("AD:\n%s", ad)
	}
	// AM writes q from the privatized results.
	if !strings.Contains(am, "q(") {
		t.Fatalf("AM:\n%s", am)
	}
	if res.LoopSplits != 1 {
		t.Fatalf("inner loop splits = %d", res.LoopSplits)
	}
}

func TestPipelineDepth2(t *testing.T) {
	r := analyze(t, figure1)
	loopA := r.Program.Body[0].(*source.Do)
	res, ok := Pipeline(r, loopA, 2)
	if !ok {
		t.Fatal("depth-2 pipeline not applied")
	}
	ad := source.FormatStmts(res.AD, 0)
	if !strings.Contains(ad, "col - 2") {
		t.Fatalf("AD should reference col-2:\n%s", ad)
	}
	if res.Depth != 2 {
		t.Fatalf("depth = %d", res.Depth)
	}
}

func TestPipelineIndependentLoopNotNeeded(t *testing.T) {
	// A loop with fully independent iterations: nothing depends on the
	// previous iteration, so everything is independent and pipelining
	// reports no split (there is no dependent part).
	r := analyze(t, `
program p
  integer n
  real x(n)
  do i = 1, n
    x(i) = f(i)
  end do
end
`)
	loop := r.Program.Body[0].(*source.Do)
	if _, ok := Pipeline(r, loop, 1); ok {
		t.Fatal("pipeline applied to an independent loop")
	}
}

func TestSplitNothingToDo(t *testing.T) {
	// C entirely Bound: split produces no independent part.
	r := analyze(t, `
program p
  integer n
  real x(n)
  do i = 1, n
    x(i) = x(i) + 1
  end do
end
`)
	var d descriptor.Descriptor
	d.AddWrite(descriptor.ScalarTriple("x"))
	res := Split(r, r.Program.Body, d, nil)
	if res.Applied() {
		t.Fatal("split applied with nothing independent")
	}
	if len(res.Independent) != 0 {
		t.Fatalf("independent = %v", res.Independent)
	}
}

func TestSplitPreservesOriginal(t *testing.T) {
	r := analyze(t, figure4)
	before := source.Format(r.Program)
	g := r.Program.Body[0].(*source.Do)
	h := r.Program.Body[1].(*source.Do)
	_ = Split(r, []source.Stmt{h}, r.DescribeLoop(g), nil)
	if source.Format(r.Program) != before {
		t.Fatal("split mutated the original program")
	}
}

func TestReadLinkedMoveHeuristic(t *testing.T) {
	// A cheap generator feeding an expensive ReadLinked consumer: the
	// heuristic should replicate the generator and move the consumer.
	r := analyze(t, `
program p
  integer n, k
  real x(n), y(n), c(n), sum
  k = n - 1
  sum = 0
  do i = 1, n
    sum = sum + x(i)
  end do
  do i = 1, n
    c(i) = f(k) + g(k) + h(k) + f(k + 1) + g(k + 1) + h(k + 1)
  end do
end
`)
	var d descriptor.Descriptor
	d.AddWrite(descriptor.ScalarTriple("x"))

	// Without moving: c's loop reads k, which is written by the block
	// that also writes sum... k=n-1 and sum=0 are one basic block, and
	// sum's loop is Bound, so the block is GenerateLinked, making the
	// c loop ReadLinked.
	res := Split(r, r.Program.Body, d, nil)
	if res.MovedReadLinked == 0 {
		t.Fatalf("ReadLinked not moved; cats=%v", res.Categories)
	}
	ci := source.FormatStmts(res.Independent, 0)
	if !strings.Contains(ci, "c(i)") {
		t.Fatalf("c loop not in CI:\n%s", ci)
	}
	// The generator (k = n-1) must be replicated into CI.
	if !strings.Contains(ci, "k = n - 1") {
		t.Fatalf("generator not replicated:\n%s", ci)
	}
}

func TestDetectReductions(t *testing.T) {
	r := analyze(t, `
program p
  integer n
  real x(n), sum, prod, bad
  do i = 1, n
    sum = sum + x(i)
    prod = prod * 2
    bad = bad + sum
  end do
end
`)
	loop := r.Program.Body[0].(*source.Do)
	// bad = bad + sum reads another carried scalar: reductionOp(bad)
	// succeeds syntactically (sum is not bad), but sum is read outside
	// its own update, so sum fails.
	_, ok := detectReductions(r, loop)
	if ok {
		t.Fatal("sum read by bad's update should disqualify")
	}
}

func TestDetectSimpleReductions(t *testing.T) {
	r := analyze(t, `
program p
  integer n
  real x(n), sum, prod
  do i = 1, n
    sum = sum + x(i)
    prod = prod * x(i)
  end do
end
`)
	loop := r.Program.Body[0].(*source.Do)
	reds, ok := detectReductions(r, loop)
	if !ok || len(reds) != 2 {
		t.Fatalf("reds = %v ok=%v", reds, ok)
	}
	ops := map[string]string{}
	for _, rd := range reds {
		ops[rd.Var] = rd.Op
	}
	if ops["sum"] != "+" || ops["prod"] != "*" {
		t.Fatalf("ops = %v", ops)
	}

	// A sum updated inside an inner loop is a reduction of both loops.
	r = analyze(t, `
program p
  integer n
  real x(n, n), sum
  do i = 1, n
    do j = 1, n
      sum = sum + x(i, j)
    end do
  end do
end
`)
	outer := r.Program.Body[0].(*source.Do)
	inner := outer.Body[0].(*source.Do)
	for _, loop := range []*source.Do{outer, inner} {
		reds, ok := detectReductions(r, loop)
		if !ok || len(reds) != 1 || reds[0] != (reduction{Var: "sum", Op: "+"}) {
			t.Fatalf("loop %s: reds = %v ok=%v", loop.Var, reds, ok)
		}
	}
}

func TestNonReductionCarriedScalarBlocksSplit(t *testing.T) {
	// s = s - x(i) is not recognized (subtraction is not associative in
	// our recognizer), so iteration splitting must refuse.
	r := analyze(t, `
program p
  integer n, a
  real x(n, n), y(n), s

  do i = 1, n
    x(a, i) = y(i)
  end do
  do i = 1, n
    s = s - x(1, i)
  end do
end
`)
	g := r.Program.Body[0].(*source.Do)
	h := r.Program.Body[1].(*source.Do)
	res := Split(r, []source.Stmt{h}, r.DescribeLoop(g), nil)
	if res.LoopSplits != 0 {
		t.Fatal("split accepted a non-associative carried update")
	}
}

func TestOpCount(t *testing.T) {
	r := analyze(t, `
program p
  integer a, b
  a = b + 1
  a = f(b) * 2 - 3
end
`)
	n := opCount(r.Program.Body)
	if n < 5 {
		t.Fatalf("opCount = %d, too small", n)
	}
}

func TestExprToSource(t *testing.T) {
	r := analyze(t, `
program p
  integer n, col, k
  k = col - 1
  k = k + n
end
`)
	st := r.Program.Body[1].(*source.Assign)
	env := r.SSA.AtStmt[st]
	sym, ok := r.SSA.TranslateExpr(st.RHS, env)
	if !ok {
		t.Fatal("translate failed")
	}
	// k + n inlines k = col-1, giving col + n - 1.
	back, ok := exprToSource(r, sym)
	if !ok {
		t.Fatal("exprToSource failed")
	}
	got := source.FormatExpr(back)
	if got != "-1 + col + n" && got != "col + n - 1" {
		t.Fatalf("round trip = %q", got)
	}
}
