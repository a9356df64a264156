package fuzz

import (
	"fmt"
	"math"

	"orchestra/internal/compile"
	"orchestra/internal/delirium"
	"orchestra/internal/interp"
	"orchestra/internal/source"
)

// The lowering turns a compiled program's units into dataflow-safe
// kernels over a versioned memory image, so the same graph binding runs
// correctly on every backend regardless of task execution order. The
// kernel contract (internal/native/kernel.go) demands tasks that are
// order-independent within an operator; ordinary program statements
// mutate shared arrays in place and are not. The lowering restores the
// contract with single-assignment versions:
//
//   - every unit that writes an array gets a fresh output version of
//     it, with per-element written flags and the writing task recorded;
//     reads fall through unwritten elements to the previous version, so
//     anti-dependences vanish and partial writes (guards, sub-ranges)
//     compose;
//   - a unit classified parallel runs one task per loop iteration, and
//     the classifier guarantees each task writes only elements indexed
//     by its own induction value and reads written arrays only at those
//     elements — tasks are pure functions of immutable inputs;
//   - a reduction loop (s = s + e) writes per-iteration contributions
//     into a version buffer, and a synthetic one-task merge node —
//     added to the oracle graph with explicit ordering edges — folds
//     them in iteration order, keeping the result bit-identical to
//     sequential execution;
//   - anything the classifier cannot prove parallel runs as a single
//     serial task interpreting the unit's statements against the
//     version chain, which is always sound.
type Lowered struct {
	// Graph is the oracle graph: the compiled graph plus reduction
	// merge nodes and their ordering edges.
	Graph *delirium.Graph

	kernels []*kernel
	byName  map[string]*kernel
	aPlans  []verPlan
	sPlans  []verPlan
	chainA  map[string][]int // array -> version ids, creation order
	chainS  map[string][]int
	dims    map[string][]int
	sizes   map[string]int
	initA   map[string][]float64
	initS   map[string]float64

	// Ancestor closures over the oracle graph, for the order checker:
	// anyAnc[k][p] — p precedes k through some edge path; plainAnc[k][p]
	// — through a path of only ordinary (completion-gated) edges, which
	// transitively guarantees p is fully done when k's tasks run.
	anyAnc   [][]bool
	plainAnc [][]bool
}

// verPlan describes one version buffer: which op owns it and which
// version it shadows (-1 = the initial image).
type verPlan struct {
	name  string
	owner int
	prev  int
}

// Kernel kinds.
const (
	kSerial = iota
	kParallel
	kReduction
	kMerge
)

var kindNames = [...]string{"serial", "parallel", "reduction", "merge"}

type kernel struct {
	idx  int
	name string
	role string
	kind int
	n    int

	// parallel / reduction
	loop  *source.Do
	iters []int
	// reduction
	redVar  string
	redExpr source.Expr
	contrib int // contribution version id
	// merge
	srcOp int
	// serial
	stmts []source.Stmt

	// version bindings: the version an access to each variable resolves
	// against (the op's own output version when it writes the variable).
	verA   map[string]int
	verS   map[string]int
	writeA map[string]int
	writeS map[string]int

	// inE classifies incoming oracle-graph edges by producer op index,
	// for the order checker: 1 = completion-gated, 2 = pipelined.
	inE map[int]int
}

// Kinds summarizes the lowered kernels ("parallel" × 4, …) for logging.
func (l *Lowered) Kinds() map[string]int {
	m := map[string]int{}
	for _, k := range l.kernels {
		m[kindNames[k.kind]]++
	}
	return m
}

const maxKernelTasks = 1 << 16

type lowerError struct{ msg string }

func (e *lowerError) Error() string { return "fuzz: lower: " + e.msg }

func lowFail(format string, args ...interface{}) {
	panic(&lowerError{fmt.Sprintf(format, args...)})
}

// Lower binds a compiled program to executable kernels over the given
// initial memory image. initS must hold every scalar the transformed
// program's declarations and loop bounds need (missing declared scalars
// default to 0, as in the interpreter); array extents are evaluated
// from the transformed declarations over initS. Programs outside the
// lowering's supported shape return an error and are skipped by the
// oracle — the classifier's serial fallback keeps that set small.
func Lower(out *compile.Output, initS map[string]float64, initA map[string][]float64) (low *Lowered, err error) {
	defer func() {
		if r := recover(); r != nil {
			if le, ok := r.(*lowerError); ok {
				low, err = nil, le
				return
			}
			panic(r)
		}
	}()
	l := &Lowered{
		byName: map[string]*kernel{},
		chainA: map[string][]int{},
		chainS: map[string][]int{},
		dims:   map[string][]int{},
		sizes:  map[string]int{},
		initA:  map[string][]float64{},
		initS:  map[string]float64{},
	}

	// Memory image: every declaration of the transformed program.
	for _, d := range out.Program.Decls {
		if !d.IsArray() {
			l.initS[d.Name] = initS[d.Name]
			continue
		}
		size := 1
		var dims []int
		for _, de := range d.Dims {
			v, ok := constEval(de, initS)
			ival := int(math.Round(v))
			if !ok || ival < 1 || ival > maxKernelTasks {
				lowFail("array %s has unsupported extent", d.Name)
			}
			dims = append(dims, ival)
			size *= ival
			if size > 1<<22 {
				lowFail("array %s too large", d.Name)
			}
		}
		l.dims[d.Name] = dims
		l.sizes[d.Name] = size
		buf := make([]float64, size)
		copy(buf, initA[d.Name])
		l.initA[d.Name] = buf
	}

	// The AI units' emitted loops, for reconstructing the iteration
	// space of AD/AM fragments.
	groupLoop := map[string]*source.Do{}
	for _, u := range out.Units {
		if u.Role == "AI" {
			em := u.Emit()
			if len(em) == 1 {
				if d, ok := em[0].(*source.Do); ok {
					groupLoop[baseOf(u.Name)] = d
				}
			}
		}
	}

	// Scalars written anywhere disqualify themselves as parallel loop
	// bounds (task counts must be fixed at bind time).
	writtenScalars := map[string]bool{}
	for _, u := range out.Units {
		stmts := u.Stmts
		source.WalkStmts(stmts, func(s source.Stmt) {
			if as, ok := s.(*source.Assign); ok {
				if id, ok := as.LHS.(*source.Ident); ok {
					writtenScalars[id.Name] = true
				}
			}
		})
	}

	// Classify units into kernels, appending a merge kernel after each
	// reduction, and thread the version chains in unit order.
	curA := map[string]int{}
	curS := map[string]int{}
	missing := func(name string) bool { _, ok := l.sizes[name]; return !ok }

	newAVer := func(name string, owner int) int {
		if missing(name) {
			lowFail("write to undeclared array %s", name)
		}
		prev := -1
		if ids := l.chainA[name]; len(ids) > 0 {
			prev = ids[len(ids)-1]
		}
		id := len(l.aPlans)
		l.aPlans = append(l.aPlans, verPlan{name: name, owner: owner, prev: prev})
		l.chainA[name] = append(l.chainA[name], id)
		curA[name] = id
		return id
	}
	newSVer := func(name string, owner int) int {
		prev := -1
		if ids := l.chainS[name]; len(ids) > 0 {
			prev = ids[len(ids)-1]
		}
		id := len(l.sPlans)
		l.sPlans = append(l.sPlans, verPlan{name: name, owner: owner, prev: prev})
		l.chainS[name] = append(l.chainS[name], id)
		curS[name] = id
		return id
	}
	snapshot := func(k *kernel) {
		k.verA = map[string]int{}
		k.verS = map[string]int{}
		for n, id := range curA {
			k.verA[n] = id
		}
		for n, id := range curS {
			k.verS[n] = id
		}
	}
	add := func(k *kernel) *kernel {
		k.idx = len(l.kernels)
		k.contrib = -1
		l.kernels = append(l.kernels, k)
		l.byName[k.name] = k
		return k
	}

	for _, u := range out.Units {
		k := add(&kernel{name: u.Name, role: u.Role})
		classify(k, u, groupLoop, writtenScalars, l.initS)
		// Reads resolve against the pre-unit chain state; own writes
		// get fresh versions layered on top.
		snapshot(k)
		switch k.kind {
		case kParallel, kSerial:
			k.writeA = map[string]int{}
			k.writeS = map[string]int{}
			wa, ws := writeSets(kernelStmts(k))
			for _, name := range wa {
				id := newAVer(name, k.idx)
				k.writeA[name] = id
				k.verA[name] = id
			}
			if k.kind == kParallel && len(ws) > 0 {
				lowFail("parallel kernel %s writes scalars", k.name)
			}
			for _, name := range ws {
				id := newSVer(name, k.idx)
				k.writeS[name] = id
				k.verS[name] = id
			}
		case kReduction:
			// The contribution buffer is a synthetic array version with
			// no previous version and one element per task.
			k.contrib = len(l.aPlans)
			cname := "·" + k.name
			l.aPlans = append(l.aPlans, verPlan{name: cname, owner: k.idx, prev: -1})
			l.sizes[cname] = maxInt2(k.n, 1)
			l.dims[cname] = []int{maxInt2(k.n, 1)}
			l.initA[cname] = make([]float64, maxInt2(k.n, 1))

			m := add(&kernel{name: u.Name + "_red", kind: kMerge, n: 1, srcOp: k.idx, redVar: k.redVar})
			snapshot(m)
			m.writeS = map[string]int{k.redVar: 0}
			id := newSVer(k.redVar, m.idx)
			m.writeS[k.redVar] = id
			m.verS[k.redVar] = id
		}
	}

	// Oracle graph: the compiled nodes and edges verbatim, plus the
	// merge nodes with explicit ordering edges — a reduction's merge
	// must run after it, and everything later that touches the reduced
	// scalar must run after the merge. (The merges are the oracle's own
	// nodes, so the compiled graph cannot know these edges.)
	g := delirium.NewGraph(out.Graph.Name)
	for _, k := range l.kernels {
		if err := g.AddNode(&delirium.Node{
			Name: k.name, Kind: delirium.Par,
			Tasks: fmt.Sprintf("%d", k.n), Comment: kindNames[k.kind],
		}); err != nil {
			return nil, err
		}
	}
	for _, e := range out.Graph.Edges {
		ce := *e
		g.AddEdge(&ce)
	}
	for _, k := range l.kernels {
		if k.kind != kMerge {
			continue
		}
		red := l.kernels[k.srcOp]
		g.AddEdge(&delirium.Edge{From: red.name, To: k.name, Bytes: 8})
		for _, later := range l.kernels[k.idx+1:] {
			if later.kind == kMerge && later.redVar == k.redVar {
				g.AddEdge(&delirium.Edge{From: k.name, To: later.name, Bytes: 8})
				continue
			}
			if touchesScalar(later, k.redVar) {
				g.AddEdge(&delirium.Edge{From: k.name, To: later.name, Bytes: 8})
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("fuzz: oracle graph invalid: %v", err)
	}
	l.Graph = g

	// Incoming-edge classification for the order checker.
	for _, k := range l.kernels {
		k.inE = map[int]int{}
	}
	for _, e := range g.Edges {
		if e.Carried {
			continue
		}
		to := l.byName[e.To]
		cls := 1
		if e.Pipelined {
			cls = 2
		}
		if cur, ok := to.inE[l.byName[e.From].idx]; !ok || cls < cur {
			// A plain edge is stricter than a pipelined one; keep the
			// strictest classification when both exist.
			to.inE[l.byName[e.From].idx] = cls
		}
	}

	// Ancestor closures in topological order.
	nk := len(l.kernels)
	l.anyAnc = make([][]bool, nk)
	l.plainAnc = make([][]bool, nk)
	for i := range l.kernels {
		l.anyAnc[i] = make([]bool, nk)
		l.plainAnc[i] = make([]bool, nk)
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, node := range order {
		k := l.byName[node.Name]
		for p, cls := range k.inE {
			l.anyAnc[k.idx][p] = true
			for a, ok := range l.anyAnc[p] {
				if ok {
					l.anyAnc[k.idx][a] = true
				}
			}
			if cls == 1 {
				l.plainAnc[k.idx][p] = true
				for a, ok := range l.plainAnc[p] {
					if ok {
						l.plainAnc[k.idx][a] = true
					}
				}
			}
		}
	}
	return l, nil
}

// kernelStmts is the statement list a kernel's write set derives from.
func kernelStmts(k *kernel) []source.Stmt {
	if k.kind == kSerial {
		return k.stmts
	}
	if k.loop != nil {
		return []source.Stmt{k.loop}
	}
	return nil
}

// classify decides how a unit executes. It fills kind, n, and the
// kind-specific fields of k.
func classify(k *kernel, u compile.Unit, groupLoop map[string]*source.Do, writtenScalars map[string]bool, initS map[string]float64) {
	switch u.Role {
	case "AI", "AD", "AM":
		// Pipelined-loop fragments: per-iteration statement lists whose
		// iteration space lives on the AI unit's emitted loop. Execute
		// serially (the AD part is serialized by its carried dependence
		// anyway); an empty fragment is a zero-task placeholder node.
		loop := groupLoop[baseOf(u.Name)]
		if loop == nil {
			lowFail("pipelined unit %s has no group loop", u.Name)
		}
		if len(u.Stmts) == 0 {
			k.kind = kSerial
			k.n = 0
			return
		}
		wrapped := source.CloneStmt(loop).(*source.Do)
		wrapped.Body = source.CloneStmts(u.Stmts)
		k.kind = kSerial
		k.n = 1
		k.stmts = []source.Stmt{wrapped}
		return
	}
	if len(u.Stmts) == 0 {
		k.kind = kSerial
		k.n = 0
		return
	}
	if len(u.Stmts) == 1 {
		if d, ok := u.Stmts[0].(*source.Do); ok {
			if classifyLoop(k, d, writtenScalars, initS) {
				return
			}
		}
	}
	k.kind = kSerial
	k.n = 1
	k.stmts = u.Stmts
}

// classifyLoop attempts the parallel or reduction classification of a
// single do-loop; it reports false to fall back to serial.
func classifyLoop(k *kernel, d *source.Do, writtenScalars map[string]bool, initS map[string]float64) bool {
	iters, ok := enumerate(d, writtenScalars, initS)
	if !ok {
		return false
	}

	// Reduction shape: exactly "s = s + expr" with neither guard nor
	// expr reading s.
	if len(d.Body) == 1 {
		if as, ok := d.Body[0].(*source.Assign); ok {
			if id, ok := as.LHS.(*source.Ident); ok {
				if rhs, ok := as.RHS.(*source.Bin); ok && rhs.Op == "+" {
					if l, ok := rhs.L.(*source.Ident); ok && l.Name == id.Name &&
						!readsScalarExpr(rhs.R, id.Name) &&
						!readsScalarExpr(d.Where, id.Name) && id.Name != d.Var {
						k.kind = kReduction
						k.n = len(iters)
						k.loop = d
						k.iters = iters
						k.redVar = id.Name
						k.redExpr = rhs.R
						return true
					}
				}
			}
		}
	}

	// Parallel shape: iterations own disjoint elements. Every array
	// write must carry the induction variable as a subscript in some
	// dimension (consistent per array), every read of a written array
	// must use the induction variable at that same dimension, no scalar
	// is written, and no inner construct rebinds the induction variable.
	iv := d.Var
	ivDim := map[string]int{}
	parallel := true
	var visitStmts func(ss []source.Stmt)
	visitExprReads := func(e source.Expr) {}
	checkRead := func(ref *source.ArrayRef) {
		dim, written := ivDim[ref.Name]
		if !written {
			return
		}
		if dim >= len(ref.Index) || !isIdent(ref.Index[dim], iv) {
			parallel = false
		}
	}
	visitExprReads = func(e source.Expr) {
		source.WalkExpr(e, func(x source.Expr) {
			if ref, ok := x.(*source.ArrayRef); ok {
				checkRead(ref)
			}
		})
	}
	// First pass: collect write dimensions.
	source.WalkStmts(d.Body, func(s source.Stmt) {
		as, ok := s.(*source.Assign)
		if !ok {
			return
		}
		switch lhs := as.LHS.(type) {
		case *source.Ident:
			parallel = false
		case *source.ArrayRef:
			dim := -1
			for i, ix := range lhs.Index {
				if isIdent(ix, iv) {
					dim = i
					break
				}
			}
			if dim < 0 {
				parallel = false
				return
			}
			if have, ok := ivDim[lhs.Name]; ok && have != dim {
				parallel = false
				return
			}
			ivDim[lhs.Name] = dim
		}
	})
	if !parallel {
		return false
	}
	// Second pass: reads (including guards, subscripts, inner bounds)
	// and structural restrictions.
	visitStmts = func(ss []source.Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *source.Assign:
				visitExprReads(s.RHS)
				if ref, ok := s.LHS.(*source.ArrayRef); ok {
					// Subscripts of other dimensions are reads too.
					for i, ix := range ref.Index {
						if i != ivDim[ref.Name] {
							visitExprReads(ix)
						}
					}
				}
			case *source.Do:
				if s.Var == iv {
					parallel = false
					return
				}
				for _, r := range s.Ranges {
					visitExprReads(r.Lo)
					visitExprReads(r.Hi)
					visitExprReads(r.Step)
				}
				visitExprReads(s.Where)
				visitStmts(s.Body)
			case *source.If:
				visitExprReads(s.Cond)
				visitStmts(s.Then)
				visitStmts(s.Else)
			default:
				parallel = false
				return
			}
		}
	}
	visitExprReads(d.Where)
	visitStmts(d.Body)
	if !parallel {
		return false
	}
	k.kind = kParallel
	k.n = len(iters)
	k.loop = d
	k.iters = iters
	return true
}

// enumerate computes the concrete iteration list of a loop whose
// bounds are bind-time constants: expressions over never-written
// scalars. Loops with dynamic bounds fall back to serial execution.
func enumerate(d *source.Do, writtenScalars map[string]bool, initS map[string]float64) ([]int, bool) {
	iters := []int{}
	for _, r := range d.Ranges {
		lo, ok1 := boundEval(r.Lo, writtenScalars, initS)
		hi, ok2 := boundEval(r.Hi, writtenScalars, initS)
		step := 1.0
		ok3 := true
		if r.Step != nil {
			step, ok3 = boundEval(r.Step, writtenScalars, initS)
		}
		if !ok1 || !ok2 || !ok3 {
			return nil, false
		}
		s := int(math.Round(step))
		if s < 1 {
			lowFail("non-positive do step %d", s)
		}
		for i := int(math.Round(lo)); i <= int(math.Round(hi)); i += s {
			iters = append(iters, i)
			if len(iters) > maxKernelTasks {
				lowFail("loop exceeds %d iterations", maxKernelTasks)
			}
		}
	}
	return iters, true
}

// boundEval evaluates a bound expression over the initial scalars,
// refusing anything dynamic (arrays, calls, written scalars).
func boundEval(e source.Expr, writtenScalars map[string]bool, initS map[string]float64) (float64, bool) {
	switch e := e.(type) {
	case *source.Num:
		return interp.NumValue(e), true
	case *source.Ident:
		if writtenScalars[e.Name] {
			return 0, false
		}
		v, ok := initS[e.Name]
		return v, ok
	case *source.Un:
		if e.Op != "-" {
			return 0, false
		}
		v, ok := boundEval(e.X, writtenScalars, initS)
		return -v, ok
	case *source.Bin:
		l, ok1 := boundEval(e.L, writtenScalars, initS)
		r, ok2 := boundEval(e.R, writtenScalars, initS)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch e.Op {
		case "+":
			return l + r, true
		case "-":
			return l - r, true
		case "*":
			return l * r, true
		case "/":
			if r == 0 {
				return 0, false
			}
			return l / r, true
		}
	}
	return 0, false
}

// constEval evaluates a declaration extent over the initial scalars.
func constEval(e source.Expr, initS map[string]float64) (float64, bool) {
	return boundEval(e, map[string]bool{}, initS)
}

// writeSets collects the arrays and scalars a statement list assigns,
// in first-write order.
func writeSets(ss []source.Stmt) (arrays, scalars []string) {
	seenA := map[string]bool{}
	seenS := map[string]bool{}
	source.WalkStmts(ss, func(s source.Stmt) {
		as, ok := s.(*source.Assign)
		if !ok {
			return
		}
		switch lhs := as.LHS.(type) {
		case *source.Ident:
			if !seenS[lhs.Name] {
				seenS[lhs.Name] = true
				scalars = append(scalars, lhs.Name)
			}
		case *source.ArrayRef:
			if !seenA[lhs.Name] {
				seenA[lhs.Name] = true
				arrays = append(arrays, lhs.Name)
			}
		}
	})
	return arrays, scalars
}

// touchesScalar reports whether a kernel reads or writes the scalar.
func touchesScalar(k *kernel, name string) bool {
	if k.kind == kMerge {
		return k.redVar == name
	}
	found := false
	check := func(e source.Expr) {
		if readsScalarExpr(e, name) {
			found = true
		}
	}
	if k.loop != nil {
		for _, r := range k.loop.Ranges {
			check(r.Lo)
			check(r.Hi)
			check(r.Step)
		}
		check(k.loop.Where)
	}
	source.WalkStmts(kernelStmts(k), func(s source.Stmt) {
		switch s := s.(type) {
		case *source.Assign:
			if id, ok := s.LHS.(*source.Ident); ok && id.Name == name {
				found = true
			}
			check(s.RHS)
			if ref, ok := s.LHS.(*source.ArrayRef); ok {
				for _, ix := range ref.Index {
					check(ix)
				}
			}
		case *source.Do:
			for _, r := range s.Ranges {
				check(r.Lo)
				check(r.Hi)
				check(r.Step)
			}
			check(s.Where)
		case *source.If:
			check(s.Cond)
		case *source.CallStmt:
			for _, a := range s.Args {
				check(a)
			}
		}
	})
	if k.kind == kReduction {
		check(k.redExpr)
	}
	return found
}

// readsScalarExpr reports whether e references the scalar by name.
func readsScalarExpr(e source.Expr, name string) bool {
	found := false
	source.WalkExpr(e, func(x source.Expr) {
		if id, ok := x.(*source.Ident); ok && id.Name == name {
			found = true
		}
	})
	return found
}

func isIdent(e source.Expr, name string) bool {
	id, ok := e.(*source.Ident)
	return ok && id.Name == name
}

// baseOf strips a split-part suffix (_i/_d/_m/_ai/_ad/_am), mirroring
// the compiler's unit naming.
func baseOf(n string) string {
	for i := len(n) - 1; i > 0; i-- {
		if n[i] == '_' {
			switch n[i+1:] {
			case "i", "d", "m", "ai", "ad", "am":
				return n[:i]
			}
			break
		}
	}
	return n
}

func maxInt2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
