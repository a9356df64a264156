package workload

import (
	"orchestra/internal/interp"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/split"
)

// MemChain is the bandwidth-saturating multi-operator workload: a
// chain of cheap streaming kernels over arrays sized far beyond any
// cache, so the run is bound by DRAM traffic, not compute —
//
//	load → scale1 → scale2 → smooth → reduce
//
// load fills its array from a deterministic per-index function; the
// scale stages are saxpy-style pointwise maps; smooth is a radius-1
// stencil; reduce squares its input element-wise into an accumulator
// array (the element-partials form of a sum reduction, folded by the
// caller). At this arithmetic intensity the barriered schedule streams
// every intermediate array to DRAM and back once per stage; cache
// chaining (internal/native's split-annotation scheduler) instead runs
// each ~64 KB block through all stages while it is L2-resident, which
// is exactly the traffic bench's native-memchain workload measures.
//
// Each stage is one plain loop over its own arrays (the range body), and
// a single task is the one-element range. At this intensity a call per
// element costs as much as the element's memory traffic, so a chunk must
// not pay one.
//
// Every kernel writes only its own elements as a pure function of its
// inputs (the native kernel contract), so any schedule either backend
// produces — barriered, prefix-gated, chained, stolen, re-issued after
// a crash — yields a bitwise-identical memory image.
//
// The split annotations declare the access shapes: the maps are
// Pointwise, smooth is Stencil(1), and reduce is Reduction — reads
// element-wise (so it can terminate a chain) but conservatively
// declines to promise element writes, ending chain propagation.
//
// The returned state is fresh per call; a run must start from the
// returned arrays (they may be zero or stale — every element is
// overwritten).
func MemChain(cfg Config) (*App, *interp.State) {
	n := cfg.N
	if n < 1 {
		n = 1
	}
	st := interp.NewState()
	for _, name := range []string{"load", "scale1", "scale2", "smooth", "reduce"} {
		st.Alloc(name, n)
	}
	ld := st.Arrays["load"]
	s1 := st.Arrays["scale1"]
	s2 := st.Arrays["scale2"]
	sm := st.Arrays["smooth"]
	rd := st.Arrays["reduce"]
	seed := float64(cfg.Seed%1021) * 1e-3

	// streamOp wraps a stage's range body as an operation spec.
	streamOp := func(name string, body func(lo, hi int), ann *split.Annotation) rts.OpSpec {
		return rts.OpSpec{
			Op: sched.Op{
				Name:  name,
				N:     n,
				Bytes: 8,
				Time: func(i int) float64 {
					body(i, i+1)
					return 1
				},
				TimeRange: func(lo, hi int) float64 {
					body(lo, hi)
					return float64(hi - lo)
				},
			},
			Mu:    1,
			Split: ann,
		}
	}
	ops := map[string]rts.OpSpec{
		"load": streamOp("load", func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ld[i] = seed + float64(i)*1.000000059604645e-08 // cheap, index-pure fill
			}
		}, split.Pointwise()),
		"scale1": streamOp("scale1", func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s1[i] = 1.0001*ld[i] + 0.5
			}
		}, split.Pointwise()),
		"scale2": streamOp("scale2", func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s2[i] = 0.9997*s1[i] - 0.25
			}
		}, split.Pointwise()),
		"smooth": streamOp("smooth", func(lo, hi int) {
			for i := lo; i < hi; i++ {
				l, r := i-1, i+1
				if l < 0 {
					l = 0
				}
				if r >= n {
					r = n - 1
				}
				sm[i] = 0.25*s2[l] + 0.5*s2[i] + 0.25*s2[r]
			}
		}, split.Stencil(1)),
		"reduce": streamOp("reduce", func(lo, hi int) {
			for i := lo; i < hi; i++ {
				rd[i] = sm[i] * sm[i]
			}
		}, split.Reduction()),
	}

	// The unsplit program: a barrier chain. The transformed graph keeps
	// the same operators but marks the prefix-safe edges pipelined; the
	// smooth stage reads a forward neighbor, so its in-edge must stay
	// barriered under the prefix gate — only the chain scheduler, whose
	// block coverage accounts for the halo, may overlap it.
	nodes := []string{"load", "scale1", "scale2", "smooth", "reduce"}
	seq := chain("memchain", nodes, 8)
	sp := chain("memchain-split", nodes, 8)
	for _, e := range sp.Edges {
		if e.To != "smooth" {
			e.Pipelined = true
		}
	}
	app := &App{Name: "memchain", SeqGraph: seq, SplitGraph: sp, ops: ops}
	app.setParts(nil) // every operator is its own phase; no rewrites
	return app, st
}
