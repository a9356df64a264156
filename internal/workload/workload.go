// Package workload models the four production applications of the
// paper's evaluation (§5) as parameterized synthetic workloads:
//
//   - Psirrfan, an image-reconstruction program for x-ray tomography:
//     a regular projection phase, an irregular masked update phase
//     (only columns selected by the mask carry real work), and a
//     regular output phase that split divides into an independent and
//     a dependent part;
//   - the UCLA General Circulation Model (climate): regular dynamics,
//     the irregular cloud-physics phase the paper blames for the
//     1024-processor efficiency collapse, and a radiation phase split
//     around the convective cells;
//   - the EMU circuit simulator: gate evaluation with activity
//     hot spots;
//   - an adaptive vortex method: velocity evaluation with spatially
//     clustered costs.
//
// Each application provides the original phase chain (SeqGraph), the
// dataflow graph after the split transformation (SplitGraph), and a
// binder resolving graph nodes to executable operations. Task-time
// distributions reproduce the irregularity structure the runtime
// algorithms react to: the absolute scales are arbitrary units.
package workload

import (
	"fmt"

	"orchestra/internal/delirium"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/stats"
)

// Config parameterizes an application instance.
type Config struct {
	// N is the problem size (columns, grid cells, gates, particles).
	N int
	// Seed drives all randomness; equal seeds give identical
	// workloads.
	Seed uint64
}

// App is one modelled application.
type App struct {
	Name string
	// SeqGraph is the original program: a chain of phases with
	// barriers implied between them.
	SeqGraph *delirium.Graph
	// SplitGraph is the program after the split transformation, with
	// the exposed concurrency and pipelining.
	SplitGraph *delirium.Graph
	// ops binds node names to operations.
	ops map[string]rts.OpSpec
	// parts maps a split-graph operator to the original phase it came
	// from, and to the original task indices its tasks cover (nil =
	// identity: the operator IS the phase): what coverage digests use
	// to prove a split graph executed every original task exactly once.
	parts map[string]Part
}

// Part locates a split-graph operator inside the original program:
// task i of the operator corresponds to task Index[i] of phase Phase
// (a nil Index is the identity — the operator is the whole phase).
type Part struct {
	Phase string
	Index []int
}

// PartOrigin reports where operator name came from. Operators of the
// sequential graph map to themselves.
func (a *App) PartOrigin(name string) (Part, bool) {
	p, ok := a.parts[name]
	return p, ok
}

// Phases returns the original program's phases in order.
func (a *App) Phases() []string {
	out := make([]string, 0, len(a.SeqGraph.Nodes))
	for _, nd := range a.SeqGraph.Nodes {
		out = append(out, nd.Name)
	}
	return out
}

// Bind resolves a node name to its operation.
func (a *App) Bind(name string) rts.OpSpec {
	spec, ok := a.ops[name]
	if !ok {
		panic(fmt.Sprintf("workload: %s has no operation %q", a.Name, name))
	}
	return spec
}

// GraphFor selects the graph to execute under a mode at a worker
// count. Split mode runs the transformed graph only when more than
// one worker can exploit the exposed concurrency: on a single worker
// the split graph's extra operators and pipelined-delivery bookkeeping
// are pure overhead with nothing to overlap (TAPER+split measured
// ≈1.7× slower than plain TAPER on one-worker psirrfan), so wholesale
// split is never applied at workers == 1.
func (a *App) GraphFor(mode rts.Mode, workers int) *delirium.Graph {
	if mode == rts.ModeSplit && workers > 1 {
		return a.SplitGraph
	}
	return a.SeqGraph
}

// SeqTime is the total sequential work of the original program.
func (a *App) SeqTime() float64 {
	total := 0.0
	for _, n := range a.SeqGraph.Nodes {
		total += a.ops[n.Name].Op.TotalTime()
	}
	return total
}

// makeOp wraps a task-time slice as an operation spec. The operation
// carries a warm cost hint — the applications are iterative (climate
// timesteps, reconstruction sweeps), so in steady state the runtime's
// cost function has been trained on earlier executions of the same
// parallel operation. The hint carries roughly ±10% multiplicative
// error, modelling an imperfectly learned cost function.
func makeOp(name string, times []float64, bytes int64) rts.OpSpec {
	t := times
	spec := rts.OpSpec{Op: sched.Op{
		Name:  name,
		N:     len(t),
		Time:  func(i int) float64 { return t[i] },
		Bytes: bytes,
		Hint: func(i int) float64 {
			return t[i] * (0.9 + 0.2*hashFrac(i))
		},
	}}
	spec.SampleStats(128)
	spec.SetupBytes = int64(len(t)) * bytes
	spec.CommBytes = func(n, p int) int64 { return int64(n) * bytes / 4 }
	return spec
}

// hashFrac maps a task index to a deterministic value in [0, 1).
func hashFrac(i int) float64 {
	z := uint64(i) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return float64(z>>11) / (1 << 53)
}

// sampleTimes draws n task times from d.
func sampleTimes(n int, d stats.Dist, rng *stats.RNG) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}

// partition splits times by a mask: the first result holds times at
// indices where mask is false (independent part), the second where
// mask is true (dependent part).
func partition(times []float64, mask []bool) (indep, dep []float64) {
	for i, t := range times {
		if mask[i] {
			dep = append(dep, t)
		} else {
			indep = append(indep, t)
		}
	}
	return indep, dep
}

// maskIdx returns the original indices each partition half covers, in
// the same order partition emits them.
func maskIdx(mask []bool) (indep, dep []int) {
	for i, m := range mask {
		if m {
			dep = append(dep, i)
		} else {
			indep = append(indep, i)
		}
	}
	return indep, dep
}

// setParts records part metadata: every operator of either graph maps
// to itself (identity) unless overridden as a partitioned half of an
// original phase. Must be called after both graphs are built.
func (a *App) setParts(override map[string]Part) {
	a.parts = map[string]Part{}
	for _, g := range []*delirium.Graph{a.SeqGraph, a.SplitGraph} {
		if g == nil {
			continue
		}
		for _, nd := range g.Nodes {
			if _, ok := a.parts[nd.Name]; !ok {
				a.parts[nd.Name] = Part{Phase: nd.Name}
			}
		}
	}
	for name, p := range override {
		a.parts[name] = p
	}
}

// chain builds a linear phase graph.
func chain(name string, nodes []string, bytes int64) *delirium.Graph {
	g := delirium.NewGraph(name)
	for _, n := range nodes {
		if err := g.AddNode(&delirium.Node{Name: n, Kind: delirium.Par, Tasks: "n"}); err != nil {
			panic(err)
		}
	}
	for i := 1; i < len(nodes); i++ {
		g.AddEdge(&delirium.Edge{From: nodes[i-1], To: nodes[i], Bytes: bytes, PerTask: true})
	}
	return g
}

// maskedSplitGraph builds the canonical post-split structure the
// paper's running example produces: phase A (irregular, masked) feeds
// phase B, which splits into BI (independent of A, concurrent with it)
// and BD (dependent on A). Merging of the two output halves is
// implicit, "handled by the runtime system during data communication"
// (§2). pre, when non-empty, is a regular phase preceding both.
func maskedSplitGraph(name, pre, a, bi, bd string, bytes int64) *delirium.Graph {
	g := delirium.NewGraph(name)
	add := func(n string) {
		if n == "" {
			return
		}
		if err := g.AddNode(&delirium.Node{Name: n, Kind: delirium.Par, Tasks: "n"}); err != nil {
			panic(err)
		}
	}
	add(pre)
	add(a)
	add(bi)
	add(bd)
	if pre != "" {
		g.AddEdge(&delirium.Edge{From: pre, To: a, Bytes: bytes, PerTask: true})
		g.AddEdge(&delirium.Edge{From: pre, To: bi, Bytes: bytes, PerTask: true})
	}
	g.AddEdge(&delirium.Edge{From: a, To: bd, Bytes: bytes, PerTask: true, Pipelined: true})
	return g
}
