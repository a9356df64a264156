package ssa

import (
	"testing"

	"orchestra/internal/source"
	"orchestra/internal/symbolic"
)

func convert(t *testing.T, src string) (*source.Program, *Info) {
	t.Helper()
	p, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p, Convert(p)
}

func TestEntryDefinitions(t *testing.T) {
	_, in := convert(t, `
program p
  integer n, a
  real x(n)
  a = n
end
`)
	// n and a have entry versions; x is an array (no scalar version).
	foundN := false
	for _, d := range in.Defs {
		if d.Var == "n" && d.Kind == DefEntry {
			foundN = true
		}
		if d.Var == "x" {
			t.Fatal("array x received a scalar definition")
		}
	}
	if !foundN {
		t.Fatal("no entry definition for n")
	}
}

func TestAssignVersioning(t *testing.T) {
	p, in := convert(t, `
program p
  integer a, b
  a = 1
  b = a + 2
  a = a + b
end
`)
	s0 := p.Body[0].(*source.Assign)
	s1 := p.Body[1].(*source.Assign)
	s2 := p.Body[2].(*source.Assign)

	// Before the first assignment, a is the entry version.
	envBefore := in.AtStmt[s0]
	d0 := in.Defs[envBefore["a"]]
	if d0.Kind != DefEntry {
		t.Fatalf("pre-version of a is %v", d0.Kind)
	}
	// b = a + 2 sees a's assigned version with value 1, so b's value is 3.
	env1 := in.AtStmt[s1]
	da := in.Defs[env1["a"]]
	if !da.HasValue || !da.Value.Equal(symbolic.Const(1)) {
		t.Fatalf("a's value = %v (has=%v)", da.Value, da.HasValue)
	}
	env2 := in.AtStmt[s2]
	db := in.Defs[env2["b"]]
	if !db.HasValue || !db.Value.Equal(symbolic.Const(3)) {
		t.Fatalf("b's value = %v (has=%v)", db.Value, db.HasValue)
	}
	// a = a + b gives a the value 4.
	var final *Def
	for _, d := range in.Defs {
		if d.Var == "a" && d.Kind == DefAssign && d.HasValue && d.Value.Equal(symbolic.Const(4)) {
			final = d
		}
	}
	if final == nil {
		t.Fatal("final a = 4 not computed")
	}
}

func TestSymbolicValueInlining(t *testing.T) {
	p, in := convert(t, `
program p
  integer n, j, col
  real q(n, n)
  j = col - 1
  q(1, j) = 0
end
`)
	st := p.Body[1].(*source.Assign)
	env := in.AtStmt[st]
	ref := st.LHS.(*source.ArrayRef)
	sub, ok := in.TranslateExpr(ref.Index[1], env)
	if !ok {
		t.Fatal("subscript not translatable")
	}
	// j inlines to col.<entry> - 1.
	colName := env["col"]
	want := symbolic.Var(colName).AddConst(-1)
	if !sub.Equal(want) {
		t.Fatalf("subscript = %v, want %v", sub, want)
	}
}

func TestInductionDefinition(t *testing.T) {
	p, in := convert(t, `
program p
  integer n
  real x(n)
  do i = 2, n - 1
    x(i) = 0
  end do
end
`)
	loop := p.Body[0].(*source.Do)
	env := in.InsideLoop[loop]
	d := in.Defs[env["i"]]
	if d.Kind != DefInduction {
		t.Fatalf("i's def = %v", d.Kind)
	}
	if len(d.Ranges) != 1 {
		t.Fatalf("ranges = %d", len(d.Ranges))
	}
	r := d.Ranges[0]
	if !r.Start.Equal(symbolic.Const(2)) {
		t.Fatalf("start = %v", r.Start)
	}
	// End is n.1 - 1 for entry version of n.
	nName := in.AtStmt[loop]["n"]
	if !r.End.Equal(symbolic.Var(nName).AddConst(-1)) {
		t.Fatalf("end = %v", r.End)
	}
}

func TestDiscontinuousInductionRanges(t *testing.T) {
	p, in := convert(t, `
program p
  integer n, a
  real x(n)
  do i = 1, a - 1 and a + 1, n
    x(i) = 0
  end do
end
`)
	loop := p.Body[0].(*source.Do)
	d := in.Defs[in.InsideLoop[loop]["i"]]
	if len(d.Ranges) != 2 {
		t.Fatalf("ranges = %d, want 2", len(d.Ranges))
	}
}

func TestPostLoopVersionIsOpaque(t *testing.T) {
	p, in := convert(t, `
program p
  integer n, k
  real x(n)
  do i = 1, n
    x(i) = 0
  end do
  k = i
end
`)
	after := p.Body[1].(*source.Assign)
	env := in.AtStmt[after]
	d := in.Defs[env["i"]]
	if d.Kind != DefPostLoop {
		t.Fatalf("post-loop i = %v", d.Kind)
	}
	if d.HasValue {
		t.Fatal("post-loop induction version must be opaque")
	}
	// It must differ from the in-loop version.
	loop := p.Body[0].(*source.Do)
	if in.InsideLoop[loop]["i"] == env["i"] {
		t.Fatal("post-loop version equals in-loop version")
	}
}

func TestLoopCarriedPhi(t *testing.T) {
	p, in := convert(t, `
program p
  integer n, s
  real x(n)
  s = 0
  do i = 1, n
    s = s + 1
  end do
end
`)
	loop := p.Body[1].(*source.Do)
	env := in.InsideLoop[loop]
	d := in.Defs[env["s"]]
	if d.Kind != DefPhi {
		t.Fatalf("loop-carried s = %v", d.Kind)
	}
	if len(d.Args) != 2 {
		t.Fatalf("phi args = %d", len(d.Args))
	}
	if d.HasValue {
		t.Fatal("loop-carried phi with changing value must be opaque")
	}
	if d.Loop != loop {
		t.Fatalf("header phi's loop = %v, want its do", d.Loop)
	}
}

func TestBranchPhi(t *testing.T) {
	p, in := convert(t, `
program p
  integer a, b, c
  if (a > 0) then
    b = 1
  else
    b = 2
  end if
  c = b
end
`)
	after := p.Body[1].(*source.Assign)
	d := in.Defs[in.AtStmt[after]["b"]]
	if d.Kind != DefPhi || len(d.Args) != 2 {
		t.Fatalf("b after if = %+v", d)
	}
	if d.HasValue {
		t.Fatal("phi of 1 and 2 must be opaque")
	}
	if d.Loop != nil {
		t.Fatalf("branch phi's loop = %v, want nil", d.Loop)
	}
}

func TestPhiWithAgreeingArgsResolves(t *testing.T) {
	p, in := convert(t, `
program p
  integer a, b, c
  if (a > 0) then
    b = 5
  else
    b = 5
  end if
  c = b
end
`)
	after := p.Body[1].(*source.Assign)
	d := in.Defs[in.AtStmt[after]["b"]]
	if !d.HasValue || !d.Value.Equal(symbolic.Const(5)) {
		t.Fatalf("agreeing phi not resolved: %+v", d)
	}
}

func TestBranchContext(t *testing.T) {
	p, in := convert(t, `
program p
  integer a, b
  if (a > 3) then
    b = 1
  else
    b = 2
  end if
end
`)
	ifStmt := p.Body[0].(*source.If)
	thenStmt := ifStmt.Then[0]
	elseStmt := ifStmt.Else[0]
	aName := in.AtStmt[ifStmt]["a"]
	thenCtx := in.Ctx[thenStmt]
	if !thenCtx.Implies(symbolic.CmpExpr(symbolic.Var(aName), symbolic.GT, symbolic.Const(3))) {
		t.Fatalf("then ctx = %v", thenCtx)
	}
	elseCtx := in.Ctx[elseStmt]
	if !elseCtx.Implies(symbolic.CmpExpr(symbolic.Var(aName), symbolic.LE, symbolic.Const(3))) {
		t.Fatalf("else ctx = %v", elseCtx)
	}
}

func TestLoopBodyContext(t *testing.T) {
	p, in := convert(t, `
program p
  integer n
  integer mask(n)
  real x(n)
  do i = 1, n where (mask(i) != 0)
    x(i) = 0
  end do
end
`)
	loop := p.Body[0].(*source.Do)
	ctx := in.BodyCtx[loop]
	iName := in.InsideLoop[loop]["i"]
	iv := symbolic.Var(iName)
	if !ctx.Implies(symbolic.CmpExpr(iv, symbolic.GE, symbolic.Const(1))) {
		t.Fatalf("ctx missing lower bound: %v", ctx)
	}
	// The where guard must appear as a mask predicate.
	guard := symbolic.NewPred(
		symbolic.ElemAtom("mask", iv), symbolic.NE, symbolic.ExprAtom(symbolic.Const(0)))
	if !ctx.Implies(guard) {
		t.Fatalf("ctx missing where guard: %v", ctx)
	}
}

func TestCallKillsScalar(t *testing.T) {
	p, in := convert(t, `
program p
  integer a, b
  a = 1
  call f(a)
  b = a
end
`)
	last := p.Body[2].(*source.Assign)
	d := in.Defs[in.AtStmt[last]["a"]]
	if d.Kind != DefCall || d.HasValue {
		t.Fatalf("a after call = %+v", d)
	}
}

func TestNestedLoopInduction(t *testing.T) {
	p, in := convert(t, `
program p
  integer n
  real x(n, n)
  do i = 1, n
    do j = i, n
      x(j, i) = 0
    end do
  end do
end
`)
	outer := p.Body[0].(*source.Do)
	inner := outer.Body[0].(*source.Do)
	dj := in.Defs[in.InsideLoop[inner]["j"]]
	// j's lower bound is the induction name of i.
	iName := in.InsideLoop[outer]["i"]
	if !dj.Ranges[0].Start.Equal(symbolic.Var(iName)) {
		t.Fatalf("j start = %v, want %v", dj.Ranges[0].Start, iName)
	}
}

func TestTranslatePredForms(t *testing.T) {
	p, in := convert(t, `
program p
  integer a, b, s
  integer m(10)
  if (a > 1 && b <= a) then
    s = 1
  end if
  if (m(a) == 0) then
    s = 2
  end if
end
`)
	if1 := p.Body[0].(*source.If)
	env := in.AtStmt[if1]
	conj, ok := in.TranslatePred(if1.Cond, env)
	if !ok || len(conj) != 2 {
		t.Fatalf("conj = %v, ok = %v", conj, ok)
	}
	if2 := p.Body[1].(*source.If)
	conj2, ok := in.TranslatePred(if2.Cond, env)
	if !ok || len(conj2) != 1 {
		t.Fatalf("elem pred = %v, ok = %v", conj2, ok)
	}
	if !conj2[0].Lhs.IsElem() {
		t.Fatal("lhs should be array element")
	}
}

func TestTranslateExprFailures(t *testing.T) {
	p, in := convert(t, `
program p
  integer a, b
  real q(10), r
  a = b * b
  a = b / 3
  r = q(1)
  r = 1.5
  a = f(b)
end
`)
	for i, wantOK := range []bool{false, false, false, false, false} {
		st := p.Body[i].(*source.Assign)
		_, ok := in.TranslateExpr(st.RHS, in.AtStmt[st])
		if ok != wantOK {
			t.Errorf("stmt %d: translate ok = %v, want %v", i, ok, wantOK)
		}
	}
	// But 6/3 is exact constant division.
	p2, in2 := convert(t, "program p\n integer a\n a = 6 / 3\nend\n")
	st := p2.Body[0].(*source.Assign)
	v, ok := in2.TranslateExpr(st.RHS, in2.AtStmt[st])
	if !ok || !v.Equal(symbolic.Const(2)) {
		t.Fatalf("6/3 = %v, %v", v, ok)
	}
}

func TestStrideTranslation(t *testing.T) {
	p, in := convert(t, `
program p
  integer n
  real x(n)
  do i = 2, n, 2
    x(i) = 0
  end do
end
`)
	loop := p.Body[0].(*source.Do)
	d := in.Defs[in.InsideLoop[loop]["i"]]
	if d.Ranges[0].Skip != 2 {
		t.Fatalf("skip = %d", d.Ranges[0].Skip)
	}
}

func TestAggregatePropagation(t *testing.T) {
	// The paper's step 4: a value assigned through an aggregate and
	// then loaded back into a scalar is recovered.
	p, in := convert(t, `
program p
  integer n, k
  real x(n)
  x(1) = n + 2
  k = x(1)
end
`)
	last := p.Body[1].(*source.Assign)
	env := in.AtStmt[last]
	// k's def: find the def created for k by the second assignment.
	var kDef *Def
	for _, d := range in.Defs {
		if d.Var == "k" && d.Kind == DefAssign {
			kDef = d
		}
	}
	_ = env
	if kDef == nil || !kDef.HasValue {
		t.Fatalf("k did not receive the propagated value: %+v", kDef)
	}
	nName := in.AtStmt[p.Body[0].(*source.Assign)]["n"]
	if !kDef.Value.Equal(symbolic.Var(nName).AddConst(2)) {
		t.Fatalf("k = %v, want n+2", kDef.Value)
	}
}

func TestAggregatePropagationInvalidatedByAliasingStore(t *testing.T) {
	p, in := convert(t, `
program p
  integer n, j, k
  real x(n)
  x(1) = 5
  x(j) = 9
  k = x(1)
end
`)
	_ = p
	var kDef *Def
	for _, d := range in.Defs {
		if d.Var == "k" && d.Kind == DefAssign {
			kDef = d
		}
	}
	if kDef != nil && kDef.HasValue {
		t.Fatalf("k recovered a value through a may-aliasing store: %v", kDef.Value)
	}
}

func TestAggregatePropagationSurvivesDistinctStore(t *testing.T) {
	_, in := convert(t, `
program p
  integer n, k
  real x(n)
  x(1) = 5
  x(2) = 9
  k = x(1)
end
`)
	var kDef *Def
	for _, d := range in.Defs {
		if d.Var == "k" && d.Kind == DefAssign {
			kDef = d
		}
	}
	if kDef == nil || !kDef.HasValue || !kDef.Value.Equal(symbolic.Const(5)) {
		t.Fatalf("provably distinct store invalidated the cache: %+v", kDef)
	}
}

func TestAggregatePropagationClearedByControlFlow(t *testing.T) {
	_, in := convert(t, `
program p
  integer n, k
  real x(n)
  x(1) = 5
  do i = 1, n
    x(i) = 0
  end do
  k = x(1)
end
`)
	var kDef *Def
	for _, d := range in.Defs {
		if d.Var == "k" && d.Kind == DefAssign {
			kDef = d
		}
	}
	if kDef != nil && kDef.HasValue {
		t.Fatalf("cache survived a loop: %v", kDef.Value)
	}
}

func TestAggregatePropagationClearedByCall(t *testing.T) {
	_, in := convert(t, `
program p
  integer n, k
  real x(n)
  x(1) = 5
  call touch(x)
  k = x(1)
end
`)
	var kDef *Def
	for _, d := range in.Defs {
		if d.Var == "k" && d.Kind == DefAssign {
			kDef = d
		}
	}
	if kDef != nil && kDef.HasValue {
		t.Fatalf("cache survived a call: %v", kDef.Value)
	}
}

func TestAggregatePropagationSharpensSubscripts(t *testing.T) {
	// The recovered value feeds a later subscript, producing a point
	// access where the analysis would otherwise widen to the whole
	// array.
	p, in := convert(t, `
program p
  integer n, k
  real x(n), y(n)
  x(1) = 3
  k = x(1)
  y(k) = 1
end
`)
	st := p.Body[2].(*source.Assign)
	env := in.AtStmt[st]
	ref := st.LHS.(*source.ArrayRef)
	sub, ok := in.TranslateExpr(ref.Index[0], env)
	if !ok || !sub.Equal(symbolic.Const(3)) {
		t.Fatalf("subscript = %v ok=%v, want 3", sub, ok)
	}
}
