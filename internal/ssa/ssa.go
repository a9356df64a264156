// Package ssa converts mini-Fortran programs to static single
// assignment form (the paper's analysis step 3) and propagates symbolic
// values and branch assertions (steps 4–6).
//
// Rather than rewriting the AST, the conversion leaves the source tree
// untouched and computes, for every statement, the environment mapping
// each scalar variable to its reaching SSA name. Each SSA name has a
// definition record carrying, when known, a symbolic value — a linear
// expression, or an iteration range for loop induction variables. The
// Translate functions convert source expressions at a program point
// into the symbolic domain, inlining linear definitions so that, for
// example, a subscript q(i, col-1) and a subscript q(i, j) with j
// defined as col-1 produce identical symbolic expressions.
package ssa

import (
	"strconv"

	"orchestra/internal/source"
	"orchestra/internal/symbolic"
)

// DefKind classifies SSA definitions.
type DefKind int

// Definition kinds.
const (
	DefEntry     DefKind = iota // program input / initial version
	DefAssign                   // scalar assignment
	DefPhi                      // join of multiple reaching definitions
	DefInduction                // loop induction variable
	DefPostLoop                 // induction variable after loop exit
	DefCall                     // scalar potentially written by a call
)

func (k DefKind) String() string {
	switch k {
	case DefEntry:
		return "entry"
	case DefAssign:
		return "assign"
	case DefPhi:
		return "phi"
	case DefInduction:
		return "induction"
	case DefPostLoop:
		return "postloop"
	case DefCall:
		return "call"
	}
	return "?"
}

// Def is one SSA definition.
type Def struct {
	Name symbolic.Name
	Var  string
	Kind DefKind

	// Value is the linear symbolic value of the definition when known
	// (DefAssign with a translatable right-hand side, or a phi whose
	// arguments agree).
	Value    symbolic.Expr
	HasValue bool

	// Ranges is the iteration space for DefInduction (one entry per
	// "and"-joined segment), in symbolic form.
	Ranges []symbolic.Range
	// Loop is the defining loop for DefInduction / DefPostLoop and a
	// loop-header DefPhi.
	Loop *source.Do

	// Args are the incoming names for DefPhi.
	Args []symbolic.Name

	num int32 // the definition's number in the program's envTable
}

// Env maps scalar variable names to their reaching SSA names at one
// program point. It is a dense vector over the program's table of
// names that can receive a definition (its scalars, then the other
// identifiers passed to calls), holding each one's reaching definition
// by number, so a snapshot is one small slice copy. The zero Env binds
// nothing.
type Env struct {
	tab *envTable
	ids []int32 // per slot: an index into tab.defs, 0 where none reaches
}

// envTable is what every Env of one program shares: the slot of each
// name, and the SSA name of every definition by number (0 is none).
type envTable struct {
	slots map[string]int
	defs  []symbolic.Name
}

// Lookup returns the SSA name reaching scalar v, if any.
func (e Env) Lookup(v string) (symbolic.Name, bool) {
	if e.tab == nil {
		return "", false
	}
	i, ok := e.tab.slots[v]
	if !ok || e.ids[i] == 0 {
		return "", false
	}
	return e.tab.defs[e.ids[i]], true
}

// Name returns the SSA name reaching scalar v, or "" when none does.
func (e Env) Name(v string) symbolic.Name {
	n, _ := e.Lookup(v)
	return n
}

// get is Name for a v the table holds.
func (e Env) get(v string) symbolic.Name { return e.tab.defs[e.ids[e.slot(v)]] }

func (e Env) slot(v string) int {
	i, ok := e.tab.slots[v]
	if !ok {
		panic("ssa: " + v + " has no slot in the scalar table")
	}
	return i
}

func (e Env) clone() Env {
	return Env{tab: e.tab, ids: append(make([]int32, 0, len(e.ids)), e.ids...)}
}

// Info is the result of SSA conversion.
type Info struct {
	Defs map[symbolic.Name]*Def

	// AtStmt gives the environment in force immediately before each
	// statement. Loop statements see the environment at the loop
	// header including their own induction definition; a statement
	// after a loop sees post-loop versions. Consecutive statements with
	// no scalar definition between them share one map, so the
	// environments are read-only.
	AtStmt map[source.Stmt]Env

	// InsideLoop gives, for loop statements, the environment in force
	// at the top of the loop body (induction variable bound).
	InsideLoop map[*source.Do]Env

	// Ctx gives the assertion context (a conjunction of predicates
	// over SSA names) established by dominating branches, where
	// guards, and loop bounds, per statement.
	Ctx map[source.Stmt]symbolic.Conj

	// BodyCtx gives the context inside a loop's body, including the
	// loop's own bound and guard predicates.
	BodyCtx map[*source.Do]symbolic.Conj

	// env is the table every Env indexes: the scalars occupy slots
	// [0, nScalars), then come identifiers that only calls define.
	env      envTable
	table    []string // the name in each slot
	nScalars int
	counters map[string]int

	// elemCache implements the paper's aggregate propagation (step 4):
	// within a straight-line region, a value stored through an array
	// element can be recovered by a scalar load of the same element
	// ("if a value V is assigned to A[i] and then A[i] is assigned to
	// a scalar, the compiler creates an SSA name for V"). An entry is
	// found by its array name and symbolic index; the cache is emptied
	// at loops, branches, and calls (alias elimination, step 5), and
	// loses entries on stores whose index cannot be proven distinct. A
	// straight-line region keeps a handful of entries, so it is a list.
	elemCache []elemEntry
}

// elemEntry is one cached array-element value.
type elemEntry struct {
	elem  symbolic.Atom // the array element, indices translated
	value symbolic.Expr
}

// Convert runs SSA conversion over a program.
func Convert(p *source.Program) *Info {
	in := &Info{
		Defs:       map[symbolic.Name]*Def{},
		AtStmt:     map[source.Stmt]Env{},
		InsideLoop: map[*source.Do]Env{},
		Ctx:        map[source.Stmt]symbolic.Conj{},
		BodyCtx:    map[*source.Do]symbolic.Conj{},
		env:        envTable{slots: map[string]int{}, defs: []symbolic.Name{""}},
		counters:   map[string]int{},
	}
	in.collectScalars(p)

	// Entry definitions: version 0 of every scalar.
	env := Env{tab: &in.env, ids: make([]int32, len(in.table))}
	for i, v := range in.table[:in.nScalars] {
		env.ids[i] = in.newDef(v, DefEntry).num
	}

	in.walkStmts(p.Body, env, Env{}, nil)
	return in
}

// collectScalars builds the scalar table: every scalar variable
// (declared scalars, loop induction variables, and assigned
// identifiers), then every other identifier passed to a call, which
// the call defines.
func (in *Info) collectScalars(p *source.Program) {
	add := func(v string) {
		if _, ok := in.env.slots[v]; !ok {
			in.env.slots[v] = len(in.table)
			in.table = append(in.table, v)
		}
	}
	for _, d := range p.Decls {
		if !d.IsArray() {
			add(d.Name)
		}
	}
	source.WalkStmts(p.Body, func(s source.Stmt) {
		switch s := s.(type) {
		case *source.Do:
			add(s.Var)
		case *source.Assign:
			if id, ok := s.LHS.(*source.Ident); ok {
				add(id.Name)
			}
		}
	})
	in.nScalars = len(in.table)
	source.WalkStmts(p.Body, func(s source.Stmt) {
		if c, ok := s.(*source.CallStmt); ok {
			for _, a := range c.Args {
				if id, ok := a.(*source.Ident); ok {
					add(id.Name)
				}
			}
		}
	})
}

func (in *Info) newDef(v string, kind DefKind) *Def {
	in.counters[v]++
	d := &Def{
		Name: symbolic.Name(v + "." + strconv.Itoa(in.counters[v])),
		Var:  v,
		Kind: kind,
		num:  int32(len(in.env.defs)),
	}
	in.Defs[d.Name] = d
	in.env.defs = append(in.env.defs, d.Name)
	return d
}

// walkStmts performs the conversion over the structured statement list.
// Because the language is fully structured, reaching definitions can be
// computed by a direct recursive walk: a loop or branch merges the
// environments of its constituent paths with phi definitions. env is
// mutated in place to reflect the effect of the statements; ctx is the
// assertion context in force. snap, when non-nil, is a read-only copy
// of env the caller already holds; the zero Env when it holds none.
func (in *Info) walkStmts(body []source.Stmt, env, snap Env, ctx symbolic.Conj) {
	// An environment only ever changes by receiving a new definition,
	// so the snapshot recorded for one statement serves the following
	// ones until the definition count moves (array stores, the bulk of
	// a loop body, define nothing).
	defs := len(in.Defs)
	for _, s := range body {
		if snap.ids == nil || len(in.Defs) != defs {
			snap, defs = env.clone(), len(in.Defs)
		}
		in.AtStmt[s] = snap
		in.Ctx[s] = ctx
		switch s := s.(type) {
		case *source.Assign:
			in.walkAssign(s, env)
		case *source.CallStmt:
			// A call may write any scalar passed by reference, and may
			// write through any aggregate (alias elimination: drop all
			// propagated element values).
			for _, a := range s.Args {
				if id, ok := a.(*source.Ident); ok {
					in.newDefInto(id.Name, DefCall, env)
				}
			}
			in.elemCache = in.elemCache[:0]
		case *source.Do:
			in.elemCache = in.elemCache[:0]
			in.walkDo(s, env, ctx)
			in.elemCache = in.elemCache[:0]
		case *source.If:
			in.elemCache = in.elemCache[:0]
			in.walkIf(s, env, snap, ctx)
			in.elemCache = in.elemCache[:0]
		}
	}
}

func (in *Info) newDefInto(v string, kind DefKind, env Env) *Def {
	d := in.newDef(v, kind)
	env.ids[env.slot(v)] = d.num
	return d
}

func (in *Info) walkAssign(s *source.Assign, env Env) {
	if id, ok := s.LHS.(*source.Ident); ok {
		// Translate the RHS in the pre-assignment environment,
		// consulting the aggregate-propagation cache for array loads.
		val, ok := in.TranslateExpr(s.RHS, env)
		if !ok {
			if ar, isRef := s.RHS.(*source.ArrayRef); isRef {
				val, ok = in.lookupElem(ar, env)
			}
		}
		d := in.newDefInto(id.Name, DefAssign, env)
		if ok {
			d.Value = val
			d.HasValue = true
		}
		return
	}
	// Array-element stores do not define scalar versions, but they
	// feed (and invalidate) the aggregate-propagation cache.
	if ar, ok := s.LHS.(*source.ArrayRef); ok {
		in.storeElem(ar, s.RHS, env)
	}
}

// storeElem records a store through an aggregate and invalidates cached
// entries of the same array it cannot prove untouched (an entry at the
// stored index is one of those, so the new entry replaces it).
func (in *Info) storeElem(ar *source.ArrayRef, rhs source.Expr, env Env) {
	elem, translatable := in.TranslateAtom(ar, env)
	kept := in.elemCache[:0]
	for _, ent := range in.elemCache {
		if string(ent.elem.Array) != ar.Name || translatable && !aliases(ent.elem.Index, elem.Index) {
			kept = append(kept, ent)
		}
	}
	in.elemCache = kept
	if !translatable {
		return
	}
	if val, ok := in.TranslateExpr(rhs, env); ok {
		in.elemCache = append(in.elemCache, elemEntry{elem: elem, value: val})
	}
}

// lookupElem recovers the value previously stored through an equal
// aggregate element, if any.
func (in *Info) lookupElem(ar *source.ArrayRef, env Env) (symbolic.Expr, bool) {
	elem, ok := in.TranslateAtom(ar, env)
	if !ok {
		return symbolic.Expr{}, false
	}
	for _, ent := range in.elemCache {
		if ent.elem.Equal(elem) {
			return ent.value, true
		}
	}
	return symbolic.Expr{}, false
}

// aliases reports whether two index vectors may refer to the same
// element: they alias unless some dimension is provably unequal.
func aliases(a, b []symbolic.Expr) bool {
	if len(a) != len(b) {
		return true
	}
	for i := range a {
		if symbolic.ProvesNotEqual(a[i], b[i], nil) {
			return false
		}
	}
	return true
}

func (in *Info) walkDo(s *source.Do, env Env, ctx symbolic.Conj) {
	// Loop-carried scalars: any scalar assigned in the body (or by a
	// nested construct) receives a phi at the header, killing its
	// pre-loop value. The induction variable gets its range definition.
	assigned := scalarsAssigned(s.Body)

	headerEnv := env.clone()
	for v := range assigned {
		if v == s.Var {
			continue
		}
		pre := headerEnv.get(v)
		phi := in.newDefInto(v, DefPhi, headerEnv)
		phi.Loop = s
		phi.Args = []symbolic.Name{pre} // body arg appended after walk
	}

	// Induction definition: bounds translated in the header environment
	// (which already reflects loop-carried phis, keeping bounds that
	// depend on variables mutated in the body conservatively opaque).
	ind := in.newDefInto(s.Var, DefInduction, headerEnv)
	ind.Loop = s
	for _, r := range s.Ranges {
		lo, okLo := in.TranslateExpr(r.Lo, headerEnv)
		hi, okHi := in.TranslateExpr(r.Hi, headerEnv)
		if !okLo {
			lo = symbolic.Var(in.opaque("lo"))
		}
		if !okHi {
			hi = symbolic.Var(in.opaque("hi"))
		}
		rg := symbolic.NewRange(lo, hi)
		if r.Step != nil {
			if st, ok := in.TranslateExpr(r.Step, headerEnv); ok {
				if c, isConst := st.IsConst(); isConst && c >= 1 {
					rg.Skip = c
				}
			}
		}
		ind.Ranges = append(ind.Ranges, rg)
	}

	// Context inside the body: lo <= var <= hi (for the hull of all
	// segments) plus the where guard.
	bodyCtx := ctx
	iv := symbolic.Var(ind.Name)
	if len(ind.Ranges) > 0 {
		bodyCtx = bodyCtx.And(symbolic.CmpExpr(iv, symbolic.GE, ind.Ranges[0].Start))
		bodyCtx = bodyCtx.And(symbolic.CmpExpr(iv, symbolic.LE, ind.Ranges[len(ind.Ranges)-1].End))
	}
	if s.Where != nil {
		if preds, ok := in.TranslatePred(s.Where, headerEnv); ok {
			bodyCtx = bodyCtx.Merge(preds)
		}
	}
	in.InsideLoop[s] = headerEnv
	in.BodyCtx[s] = bodyCtx

	// The body is walked in env itself, brought to the header state:
	// the two differ only in the assigned scalars, and those are reset
	// below whatever the body leaves in them. headerEnv stays as the
	// read-only record.
	env.ids[env.slot(s.Var)] = headerEnv.ids[env.slot(s.Var)]
	for v := range assigned {
		i := env.slot(v)
		env.ids[i] = headerEnv.ids[i]
	}
	in.walkStmts(s.Body, env, headerEnv, bodyCtx)

	// Close the phis with the body-exit versions.
	for v := range assigned {
		if v == s.Var {
			continue
		}
		phi := in.Defs[headerEnv.get(v)]
		phi.Args = append(phi.Args, env.get(v))
		in.resolvePhi(phi)
	}

	// After the loop: loop-carried scalars keep their phi versions
	// (conservative); the induction variable gets a fresh opaque
	// post-loop version, never its in-loop range (the in-loop range
	// would be unsound for code after the loop).
	for v := range assigned {
		if v != s.Var {
			i := env.slot(v)
			env.ids[i] = headerEnv.ids[i]
		}
	}
	post := in.newDefInto(s.Var, DefPostLoop, env)
	post.Loop = s
}

func (in *Info) walkIf(s *source.If, env, snap Env, ctx symbolic.Conj) {
	thenCtx := ctx
	elseCtx := ctx
	if preds, ok := in.TranslatePred(s.Cond, env); ok {
		thenCtx = thenCtx.Merge(preds)
		// The negation is a conjunction only for single predicates.
		if len(preds) == 1 {
			elseCtx = elseCtx.And(preds[0].Negate())
		}
	}
	thenEnv := env.clone()
	in.walkStmts(s.Then, thenEnv, snap, thenCtx)
	elseEnv := env.clone()
	in.walkStmts(s.Else, elseEnv, snap, elseCtx)

	// Merge: scalars redefined on either arm get phis.
	for i, v := range in.table[:in.nScalars] {
		tn, en := thenEnv.ids[i], elseEnv.ids[i]
		if tn == en {
			env.ids[i] = tn
			continue
		}
		phi := in.newDefInto(v, DefPhi, env)
		phi.Args = []symbolic.Name{in.env.defs[tn], in.env.defs[en]}
		in.resolvePhi(phi)
	}
}

// resolvePhi gives a phi a value when all its arguments carry the same
// known value (or are the same name).
func (in *Info) resolvePhi(phi *Def) {
	if len(phi.Args) == 0 {
		return
	}
	var val symbolic.Expr
	have := false
	for _, a := range phi.Args {
		d := in.Defs[a]
		var v symbolic.Expr
		switch {
		case d != nil && d.HasValue:
			v = d.Value
		default:
			v = symbolic.Var(a)
		}
		if !have {
			val, have = v, true
		} else if !val.Equal(v) {
			return
		}
	}
	phi.Value = val
	phi.HasValue = true
}

// opaque creates a fresh unnamed definition used for untranslatable
// bounds.
func (in *Info) opaque(tag string) symbolic.Name {
	d := in.newDef("$"+tag, DefEntry)
	return d.Name
}

// scalarsAssigned returns the scalar variables assigned anywhere in a
// statement list, including induction variables of nested loops and
// scalars passed to calls.
func scalarsAssigned(body []source.Stmt) map[string]bool {
	out := map[string]bool{}
	source.WalkStmts(body, func(s source.Stmt) {
		switch s := s.(type) {
		case *source.Assign:
			if id, ok := s.LHS.(*source.Ident); ok {
				out[id.Name] = true
			}
		case *source.Do:
			out[s.Var] = true
		case *source.CallStmt:
			for _, a := range s.Args {
				if id, ok := a.(*source.Ident); ok {
					out[id.Name] = true
				}
			}
		}
	})
	return out
}
