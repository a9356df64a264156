// Package fuzz is the differential conformance fuzzer: it generates
// random mini-Fortran programs, compiles them with every transformation
// enabled, and executes the result through the three execution paths
// the system has — the reference interpreter, the discrete-event
// simulator, and the native goroutine backend — diffing final memory
// bitwise. Any disagreement is a bug in the compiler, a backend, or
// the lowering contract between them; a delta-debugging minimizer
// shrinks diverging programs to committed reproducers.
//
// The package splits into four layers:
//
//   - gen.go: a seeded random program generator producing ASTs from a
//     grammar tuned to the constructs the split/pipeline
//     transformations act on (loop nests, where guards, reductions,
//     interference patterns);
//   - lower.go: lowering of compiled units to dataflow-safe kernels
//     over a versioned memory image, so any task execution order a
//     backend produces yields bit-identical results;
//   - oracle.go: the differential oracle running one program through
//     every backend × processor count × mode × grain configuration;
//   - minimize.go: the reducer.
package fuzz

import (
	"fmt"

	"orchestra/internal/source"
	"orchestra/internal/stats"
)

// GenConfig bounds the generator's output.
type GenConfig struct {
	// MaxTopLoops is the number of top-level constructs beyond the
	// leading producer/consumer pair.
	MaxTopLoops int
}

// DefaultGenConfig matches the fuzz campaign's default shape.
func DefaultGenConfig() GenConfig {
	return GenConfig{MaxTopLoops: 4}
}

// Gen generates random well-formed programs as ASTs. Generating ASTs
// rather than text means the printer/parser round-trip is itself under
// test: every generated program is formatted and re-parsed before use,
// and any mismatch is a source-layer bug.
type Gen struct {
	rng    *stats.RNG
	cfg    GenConfig
	vecs   []string // 1-D real arrays, extent n
	mats   []string // 2-D real arrays, extent (n, n)
	sums   []string // real reduction scalars
	nextID int
}

// NewGen seeds a generator.
func NewGen(seed uint64, cfg GenConfig) *Gen {
	if cfg.MaxTopLoops < 1 {
		cfg.MaxTopLoops = 1
	}
	return &Gen{
		rng:  stats.NewRNG(seed),
		cfg:  cfg,
		vecs: []string{"u", "v", "w"},
		mats: []string{"q", "r"},
		sums: []string{"s1", "s2"},
	}
}

// Observed lists the variables whose final values the oracle compares:
// every original-program array plus the reduction scalars.
func (g *Gen) Observed() (arrays, scalars []string) {
	arrays = append(append([]string{}, g.vecs...), g.mats...)
	arrays = append(arrays, "mask")
	scalars = append(scalars, g.sums...)
	return arrays, scalars
}

func num(v int64) *source.Num { return &source.Num{Text: fmt.Sprintf("%d", v), Int: v} }

func ident(name string) *source.Ident { return &source.Ident{Name: name} }

func bin(op string, l, r source.Expr) *source.Bin { return &source.Bin{Op: op, L: l, R: r} }

// ivExpr renders the induction variable plus a small offset.
func ivExpr(iv string, off int) source.Expr {
	switch {
	case off == 0:
		return ident(iv)
	case off > 0:
		return bin("+", ident(iv), num(int64(off)))
	default:
		return bin("-", ident(iv), num(int64(-off)))
	}
}

// Program generates one complete program. The body leads with a
// split-friendly producer/consumer phase pair, then random filler
// constructs; the mix is tuned so most programs trigger at least one
// transformation.
func (g *Gen) Program() *source.Program {
	p := &source.Program{Name: "fuzz"}
	addDecl := func(name string, t source.BaseType, dims ...source.Expr) {
		p.Decls = append(p.Decls, &source.Decl{Name: name, Type: t, Dims: dims})
	}
	addDecl("n", source.Integer)
	addDecl("a", source.Integer) // split point, kept in [1, n] by the oracle
	addDecl("mask", source.Integer, ident("n"))
	for _, v := range g.vecs {
		addDecl(v, source.Real, ident("n"))
	}
	for _, m := range g.mats {
		addDecl(m, source.Real, ident("n"), ident("n"))
	}
	for _, s := range g.sums {
		addDecl(s, source.Real)
	}

	p.Body = append(p.Body, g.phasePair()...)
	extra := g.rng.Intn(g.cfg.MaxTopLoops + 1)
	for i := 0; i < extra; i++ {
		switch g.rng.Intn(10) {
		case 0, 1:
			p.Body = append(p.Body, g.phasePair()...)
		case 2:
			p.Body = append(p.Body, g.reductionLoop())
		case 3:
			p.Body = append(p.Body, g.topIf())
		case 4:
			p.Body = append(p.Body, g.vectorLoop())
		default:
			if g.rng.Bernoulli(0.5) {
				p.Body = append(p.Body, g.vectorLoop())
			} else {
				p.Body = append(p.Body, g.matrixLoop())
			}
		}
	}
	return p
}

// freshVar mints a new induction-variable name.
func (g *Gen) freshVar() string {
	g.nextID++
	return fmt.Sprintf("i%d", g.nextID)
}

// guard yields a random where-guard over the mask for induction var iv.
func (g *Gen) guard(iv string) source.Expr {
	op := "!="
	if g.rng.Bernoulli(0.5) {
		op = "=="
	}
	return bin(op, &source.ArrayRef{Name: "mask", Index: []source.Expr{ident(iv)}}, num(0))
}

// subscript yields an in-bounds read index for iv ranging within
// [2, n-1]: the variable itself, a ±1 neighbour, or a small constant.
func (g *Gen) subscript(iv string) source.Expr {
	switch g.rng.Intn(5) {
	case 0, 1:
		return ident(iv)
	case 2:
		return ivExpr(iv, -1)
	case 3:
		return ivExpr(iv, 1)
	default:
		return num(int64(1 + g.rng.Intn(3)))
	}
}

// valueExpr yields an arithmetic RHS reading arrays and constants. All
// operations are reassociation-free in the generated tree, so equal
// ASTs evaluate bitwise-identically everywhere.
func (g *Gen) valueExpr(iv string, depth int) source.Expr {
	if depth <= 0 || g.rng.Bernoulli(0.3) {
		return g.leafExpr(iv)
	}
	switch g.rng.Intn(6) {
	case 0:
		return bin("+", g.valueExpr(iv, depth-1), g.valueExpr(iv, depth-1))
	case 1:
		return bin("-", g.valueExpr(iv, depth-1), g.valueExpr(iv, depth-1))
	case 2:
		return bin("*", g.valueExpr(iv, depth-1), g.leafExpr(iv))
	case 3:
		// Division by a structurally positive denominator.
		den := bin("+", bin("*", g.leafExpr(iv), g.leafExpr(iv)), num(int64(1+g.rng.Intn(3))))
		return bin("/", g.valueExpr(iv, depth-1), den)
	case 4:
		return &source.Un{Op: "-", X: g.valueExpr(iv, depth-1)}
	default:
		// External pure function (the interpreter's deterministic
		// stand-in).
		return &source.FuncCall{Name: "f", Args: []source.Expr{g.leafExpr(iv), g.leafExpr(iv)}}
	}
}

func (g *Gen) leafExpr(iv string) source.Expr {
	switch g.rng.Intn(4) {
	case 0:
		return &source.ArrayRef{Name: g.vecs[g.rng.Intn(len(g.vecs))], Index: []source.Expr{g.subscript(iv)}}
	case 1:
		return &source.ArrayRef{
			Name:  g.mats[g.rng.Intn(len(g.mats))],
			Index: []source.Expr{g.subscript(iv), g.subscript(iv)},
		}
	case 2:
		return num(int64(1 + g.rng.Intn(7)))
	default:
		return &source.Num{Text: fmt.Sprintf("%d.5", g.rng.Intn(4)), IsReal: true}
	}
}

// ranges yields the loop's iteration space: usually one [2, n-1]
// segment, sometimes a stepped segment or a discontinuous pair split at
// the program's split-point scalar a.
func (g *Gen) ranges() []source.DoRange {
	switch g.rng.Intn(6) {
	case 0:
		// Stepped: do i = 2, n - 1, 2
		return []source.DoRange{{Lo: num(2), Hi: bin("-", ident("n"), num(1)), Step: num(2)}}
	case 1:
		// Discontinuous: do i = 2, a and a + 1, n - 1
		return []source.DoRange{
			{Lo: num(2), Hi: ident("a")},
			{Lo: bin("+", ident("a"), num(1)), Hi: bin("-", ident("n"), num(1))},
		}
	default:
		return []source.DoRange{{Lo: num(2), Hi: bin("-", ident("n"), num(1))}}
	}
}

// vectorLoop yields a parallel loop updating 1-D arrays: every write
// subscript is exactly the induction variable, so iterations own
// disjoint elements; reads may touch neighbours (anti-dependences,
// which sequential ascending order and the double-buffered lowering
// agree on).
func (g *Gen) vectorLoop() source.Stmt {
	iv := g.freshVar()
	d := &source.Do{Var: iv, Ranges: g.ranges()}
	if g.rng.Bernoulli(0.35) {
		d.Where = g.guard(iv)
	}
	dst := g.vecs[g.rng.Intn(len(g.vecs))]
	n := 1 + g.rng.Intn(2)
	for k := 0; k < n; k++ {
		stmt := &source.Assign{
			LHS: &source.ArrayRef{Name: dst, Index: []source.Expr{ident(iv)}},
			RHS: g.valueExpr(iv, 2),
		}
		if g.rng.Bernoulli(0.25) {
			d.Body = append(d.Body, &source.If{
				Cond: bin(">", g.leafExpr(iv), num(2)),
				Then: []source.Stmt{stmt},
			})
		} else {
			d.Body = append(d.Body, stmt)
		}
	}
	return d
}

// matrixLoop yields a column-parallel loop nest: the outer induction
// variable owns one matrix column per iteration.
func (g *Gen) matrixLoop() source.Stmt {
	cv := g.freshVar()
	rv := g.freshVar()
	mat := g.mats[g.rng.Intn(len(g.mats))]
	inner := &source.Do{
		Var:    rv,
		Ranges: []source.DoRange{{Lo: num(2), Hi: bin("-", ident("n"), num(1))}},
		Body: []source.Stmt{&source.Assign{
			LHS: &source.ArrayRef{Name: mat, Index: []source.Expr{ident(rv), ident(cv)}},
			RHS: g.valueExpr(rv, 2),
		}},
	}
	outer := &source.Do{Var: cv, Ranges: g.ranges(), Body: []source.Stmt{inner}}
	if g.rng.Bernoulli(0.4) {
		outer.Where = g.guard(cv)
	}
	return outer
}

// reductionLoop yields s = s + expr over the iteration space.
func (g *Gen) reductionLoop() source.Stmt {
	iv := g.freshVar()
	s := g.sums[g.rng.Intn(len(g.sums))]
	d := &source.Do{Var: iv, Ranges: g.ranges()}
	if g.rng.Bernoulli(0.3) {
		d.Where = g.guard(iv)
	}
	d.Body = []source.Stmt{&source.Assign{
		LHS: ident(s),
		RHS: bin("+", ident(s), g.valueExpr(iv, 2)),
	}}
	return d
}

// topIf yields a top-level conditional over the split-point scalar.
func (g *Gen) topIf() source.Stmt {
	dst := g.vecs[g.rng.Intn(len(g.vecs))]
	mk := func(v int64) []source.Stmt {
		rhs := bin("+", num(int64(1+g.rng.Intn(5))),
			&source.Num{Text: fmt.Sprintf("%d.5", g.rng.Intn(4)), IsReal: true})
		return []source.Stmt{&source.Assign{
			LHS: &source.ArrayRef{Name: dst, Index: []source.Expr{num(1 + v)}},
			RHS: rhs,
		}}
	}
	st := &source.If{Cond: bin(">", ident("a"), num(2)), Then: mk(0)}
	if g.rng.Bernoulli(0.6) {
		st.Else = mk(1)
	}
	return st
}

// phasePair yields the shape the split transformation targets: a
// masked producer writing one matrix column per iteration, followed by
// a consumer reading that matrix at iteration-owned columns.
func (g *Gen) phasePair() []source.Stmt {
	mat := g.mats[g.rng.Intn(len(g.mats))]
	dst := g.vecs[g.rng.Intn(len(g.vecs))]
	cv := g.freshVar()
	rv := g.freshVar()
	kv := g.freshVar()
	producer := &source.Do{
		Var:    cv,
		Ranges: []source.DoRange{{Lo: num(2), Hi: bin("-", ident("n"), num(1))}},
		Where:  g.guard(cv),
		Body: []source.Stmt{&source.Do{
			Var:    rv,
			Ranges: []source.DoRange{{Lo: num(2), Hi: bin("-", ident("n"), num(1))}},
			Body: []source.Stmt{&source.Assign{
				LHS: &source.ArrayRef{Name: mat, Index: []source.Expr{ident(rv), ident(cv)}},
				RHS: g.valueExpr(rv, 2),
			}},
		}},
	}
	// The consumer reads columns <= its own iteration index (pointwise
	// correspondence, what makes the pair legal to pipeline).
	var colRead source.Expr = ident(kv)
	if g.rng.Bernoulli(0.3) {
		colRead = ivExpr(kv, -1)
	}
	consumer := &source.Do{
		Var:    kv,
		Ranges: []source.DoRange{{Lo: num(2), Hi: bin("-", ident("n"), num(1))}},
		Body: []source.Stmt{&source.Assign{
			LHS: &source.ArrayRef{Name: dst, Index: []source.Expr{ident(kv)}},
			RHS: bin("+",
				&source.ArrayRef{Name: mat, Index: []source.Expr{num(2), colRead}},
				&source.ArrayRef{Name: mat, Index: []source.Expr{ident(kv), colRead}}),
		}},
	}
	return []source.Stmt{producer, consumer}
}
