package workload

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"orchestra/internal/delirium"
	"orchestra/internal/interp"
	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/stats"
)

// Nested-dataflow workloads: real array kernels whose graphs contain
// Exp nodes, for exercising runtime expansion on every engine with a
// durable, bitwise-comparable result digest. This is the one nested
// binder: the workloads below, the "nested" registry family and the
// differential fuzzer's nested rung all bind through NewNested.
//
// Three rules cover the interesting shapes:
//
//	rule=dc     — divide and conquer: the operator covers an index
//	              range and expands into Branch children, each either a
//	              leaf operator (range ≤ Leaf) or another dc node.
//	              The rule is data-independent, so compile.Unroll
//	              produces its flat reference.
//	rule=vortex — adaptive spatial refinement (the paper's vortex
//	              method): the operator reads the array its predecessor
//	              produced and expands each of Cells cells into a fine
//	              or coarse operator depending on the measured cell
//	              intensity. The rule is data-DEPENDENT — eager
//	              unrolling would read unsettled arrays — so the flat
//	              reference comes from VortexFlat, which evaluates the
//	              same decision function analytically.
//	rule=random — a random recursive sub-graph, drawn from Seed ⊕
//	              HashName(operator) alone, so the runtime expansion in
//	              an engine and the eager one in compile.Unroll
//	              materialize identical sub-graphs without sharing
//	              state. The fuzzer's nested rung generates from it.
//
// Every operator owns one array in a shared interp.State image; task
// values are pure functions of (operator name, task index, inputs), so
// any two correct schedules — nested or flat, simulated or native, any
// worker count — digest identically (native.StateDigest). Inputs are
// read under the kernel contract (native.Input.Read), and every
// sub-operator of an expansion also reads its Exp ancestors' inputs: a
// sub-task released before an ancestor's producers settled changes
// bits, so the digest sees premature expansion, not just misordered
// sub-graphs.

func init() {
	rts.Kernels.MustRegister("nested", nestedKernel)
}

// nestedKernel is the registry form of the nested workloads: bind any
// graph whose Exp nodes carry rule=dc, vortex or random with
// rts.NamedBinding("nested", params). Recognized params (all optional):
// n, branch, leaf, cells, threshold, seed. The whole graph shares one
// instance, built once per BindEnv, whose digest becomes the run's
// result digest.
func nestedKernel(env *rts.BindEnv, op string) (rts.OpSpec, error) {
	v, err := env.Memo("workload.nested", func() (any, error) {
		cfg := NestedConfig{
			N:         env.Params.Int("n", 0),
			Branch:    env.Params.Int("branch", 0),
			Leaf:      env.Params.Int("leaf", 0),
			Cells:     env.Params.Int("cells", 0),
			Threshold: env.Params.Float("threshold", 0),
			Seed:      env.Params.Uint64("seed", 0),
		}
		in, err := NewNested(env.Graph, cfg)
		if err != nil {
			return nil, err
		}
		env.SetDigest(in.Digest)
		return in, nil
	})
	if err != nil {
		return rts.OpSpec{}, err
	}
	return v.(*NestedInstance).bind(op), nil
}

// NestedConfig parameterizes the nested workloads.
type NestedConfig struct {
	// N is the base task count (array length) of the non-expandable
	// operators and the index range the dc root covers.
	N int
	// Branch is the dc fan-out per expansion level.
	Branch int
	// Leaf is the largest range a dc node executes as a leaf instead of
	// expanding further.
	Leaf int
	// Cells is the number of spatial cells a vortex node refines.
	Cells int
	// Threshold is the cell-intensity cutoff for fine refinement, in
	// [0,1]; higher means fewer fine cells.
	Threshold float64
	// Seed keys the random rule: an operator's sub-graph is drawn from
	// Seed ⊕ HashName(operator).
	Seed uint64
}

func (c NestedConfig) withDefaults() NestedConfig {
	if c.N < 1 {
		c.N = 256
	}
	if c.Branch < 2 {
		c.Branch = 3
	}
	if c.Leaf < 1 {
		c.Leaf = 32
	}
	if c.Cells < 1 {
		c.Cells = 8
	}
	if c.Threshold <= 0 || c.Threshold >= 1 {
		c.Threshold = 0.5
	}
	return c
}

// NestedInstance is one run's worth of state for a nested workload:
// the graph, a binder over a fresh memory image, and the digest of
// that image. Like the array kernels, an instance must not be run
// twice — arrays start zeroed exactly once.
type NestedInstance struct {
	Graph *delirium.Graph
	bind  rts.Binder
	st    *interp.State
	// mu guards st's array map: the native engine invokes expansion
	// rules from worker goroutines, and sibling expansions may
	// materialize — and allocate — concurrently. Task bodies capture
	// their slices directly and never touch the map.
	mu sync.Mutex
}

// alloc allocates (or returns) the named array under the map lock.
func (in *NestedInstance) alloc(name string, n int) []float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.st.Alloc(name, n)
	return in.st.Arrays[name]
}

// Array returns the named operator's array, read under the map lock.
func (in *NestedInstance) Array(name string) []float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.st.Arrays[name]
}

// Binder resolves the instance's operators (including the expansion
// rules of its Exp nodes).
func (in *NestedInstance) Binder() rts.Binder { return in.bind }

// SetBinder replaces the instance's binder — used after a static
// unroll (compile.Unroll) rewrites the graph, so the instance runs the
// flat form against the same memory image.
func (in *NestedInstance) SetBinder(b rts.Binder) { in.bind = b }

// Digest fingerprints the memory image (native.StateDigest): SHA-256
// over the name-sorted arrays, bitwise.
func (in *NestedInstance) Digest() string { return native.StateDigest(in.st) }

// NewDC builds the divide-and-conquer workload:
//
//	seed (par, N) → root (exp, rule=dc) → out (par, N)
//
// root expands recursively over [0, N) until ranges reach Leaf size;
// every leaf and every dc join reads seed (root's input, inherited),
// every dc join folds its children, and out reads the root join.
func NewDC(cfg NestedConfig) (*NestedInstance, error) {
	return newChain3("nested-dc", "seed", "root", "dc", "out", cfg)
}

// NewVortex builds the adaptive vortex-refinement workload:
//
//	field (par, N) → refine (exp, rule=vortex) → gather (par, N)
//
// refine's expansion inspects the field array at execution time: each
// cell whose measured intensity exceeds Threshold expands into a fine
// operator (4× the tasks of a coarse one).
func NewVortex(cfg NestedConfig) (*NestedInstance, error) {
	return newChain3("nested-vortex", "field", "refine", "vortex", "gather", cfg)
}

// newChain3 builds and binds src (par, N) → exp (exp, rule) → dst
// (par, N), both edges barriers.
func newChain3(graph, src, exp, rule, dst string, cfg NestedConfig) (*NestedInstance, error) {
	cfg = cfg.withDefaults()
	n := strconv.Itoa(cfg.N)
	g := delirium.NewGraph(graph)
	g.AddNode(&delirium.Node{Name: src, Kind: delirium.Par, Tasks: n})
	g.AddNode(&delirium.Node{Name: exp, Kind: delirium.Exp, Tasks: "1", Rule: rule})
	g.AddNode(&delirium.Node{Name: dst, Kind: delirium.Par, Tasks: n})
	g.AddEdge(&delirium.Edge{From: src, To: exp, Bytes: 64, PerTask: true})
	g.AddEdge(&delirium.Edge{From: exp, To: dst, Bytes: 64, PerTask: true})
	return NewNested(g, cfg)
}

// VortexFlat builds the statically-unrolled flat reference of the
// vortex workload. compile.Unroll cannot produce it — the refinement
// rule reads the field array at execution time, and an eager call
// would see zeroes — but the decisions are recoverable offline because
// field's task values are a pure closed form. VortexFlat evaluates
// that closed form, applies the same decision function the runtime
// rule applies, and assembles the flat graph Unroll would have built,
// bound by the same binder the nested run uses. Digests of a NewVortex
// run and a VortexFlat run must match bitwise.
func VortexFlat(cfg NestedConfig) (*NestedInstance, error) {
	cfg = cfg.withDefaults()
	// field has no predecessors: field[i] is its pure base value, so
	// the refinement decisions can be taken before anything runs.
	analytic := make([]float64, cfg.N)
	for i := range analytic {
		analytic[i] = nestedVal("field", i)
	}
	cells := vortexGraph("refine", analytic, cfg).Nodes
	g := delirium.NewGraph("nested-vortex")
	g.AddNode(&delirium.Node{Name: "field", Kind: delirium.Par, Tasks: strconv.Itoa(cfg.N)})
	for _, c := range cells {
		// The parent edge field→refine anchors at the sub-graph's
		// sources in the unrolled form, barrier-converted.
		g.AddNode(c)
		g.AddEdge(&delirium.Edge{From: "field", To: c.Name, Bytes: 64, PerTask: true})
	}
	g.AddNode(&delirium.Node{Name: "refine", Kind: delirium.Par, Tasks: "1"})
	for _, c := range cells {
		g.AddEdge(&delirium.Edge{From: c.Name, To: "refine"})
	}
	g.AddNode(&delirium.Node{Name: "gather", Kind: delirium.Par, Tasks: strconv.Itoa(cfg.N)})
	g.AddEdge(&delirium.Edge{From: "refine", To: "gather", Bytes: 64, PerTask: true})

	in := &NestedInstance{Graph: g, st: interp.NewState()}
	bind, err := in.bindGraph(g, cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	// refine survives as its one-task join, gated on the cell sinks,
	// with the exact join body the nested run executes: its top-graph
	// input (field, transitively ordered through the cells) plus the
	// element-wise fold of every child.
	children := make([][]float64, len(cells))
	for i, c := range cells {
		children[i] = in.Array(c.Name)
	}
	field := []native.Input{{From: "field", Arr: in.Array("field")}}
	join := rts.OpSpec{
		Op: sched.Op{Name: "refine", N: 1, Time: nestedJoinBody("refine", field, &children, in.Array("refine")), Bytes: 64},
		Mu: 1,
	}
	in.bind = func(name string) rts.OpSpec {
		if name == "refine" {
			return join
		}
		return bind(name)
	}
	return in, nil
}

// NewNested builds a binder instance for any graph whose Exp nodes
// carry rule=dc, vortex or random. Non-expandable nodes become array
// operators (one array per operator, task values pure in the inputs);
// Exp nodes get the named expansion rule plus a join task that folds
// their children. This is also the builder behind the "nested"
// registry kernel family.
func NewNested(g *delirium.Graph, cfg NestedConfig) (*NestedInstance, error) {
	cfg = cfg.withDefaults()
	in := &NestedInstance{Graph: g, st: interp.NewState()}
	bind, err := in.bindGraph(g, cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	in.bind = bind
	return in, nil
}

// nestedVal is the pure per-task base value of an operator: a
// deterministic function of the operator name and task index alone, so
// every correct schedule computes identical bits.
func nestedVal(name string, i int) float64 {
	h := native.HashName(name)
	return float64((h*31+uint64(i)*7)%1009)/1009 + float64(h%97)/97
}

// nestedTasks resolves a node's tasks annotation: a literal count, or
// the symbolic "n" (the config's N).
func nestedTasks(nd *delirium.Node, cfg NestedConfig) (int, error) {
	if nd.Tasks == "" || nd.Tasks == "n" {
		return cfg.N, nil
	}
	n, err := strconv.Atoi(nd.Tasks)
	if err != nil {
		return 0, fmt.Errorf("workload: node %s has tasks=%q (want a literal count or \"n\")", nd.Name, nd.Tasks)
	}
	return n, nil
}

// bindGraph resolves one (sub-)graph level against the shared image.
// inherited are the Exp ancestors' inputs, which every operator of the
// level reads besides its own; spans are the index ranges of the
// level's dc nodes (cfg.N where absent).
func (in *NestedInstance) bindGraph(g *delirium.Graph, cfg NestedConfig, inherited []native.Input, spans map[string]int) (rts.Binder, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	specs := map[string]rts.OpSpec{}
	for _, nd := range order {
		n, err := nestedTasks(nd, cfg)
		if err != nil {
			return nil, err
		}
		inputs := native.Inputs(g, nd.Name, in.Array, inherited)
		if nd.Kind != delirium.Exp {
			specs[nd.Name] = arraySpec(nd.Name, inputs, in.alloc(nd.Name, n))
			continue
		}
		span, ok := spans[nd.Name]
		if !ok {
			span = cfg.N
		}
		if specs[nd.Name], err = in.expSpec(g, nd, inputs, span, cfg); err != nil {
			return nil, err
		}
	}
	return func(name string) rts.OpSpec { return specs[name] }, nil
}

// arraySpec builds an ordinary array operator: task i writes
// arr[i] = base(name, i) + Σ inputs, each read under the kernel
// contract.
func arraySpec(name string, inputs []native.Input, arr []float64) rts.OpSpec {
	n := len(arr)
	body := func(i int) float64 {
		v := nestedVal(name, i)
		for _, inp := range inputs {
			v += inp.Read(i, n)
		}
		arr[i] = v
		return 1
	}
	return rts.OpSpec{Op: sched.Op{Name: name, N: n, Time: body, Bytes: 64}, Mu: 1}
}

// expSpec builds an expandable operator: its Expand hook, which draws
// the sub-graph by rule and binds it one level down with the operator's
// inputs inherited, plus its one-task join body, which folds every
// child array the expansion materialized. span is the index range a dc
// operator covers.
func (in *NestedInstance) expSpec(g *delirium.Graph, nd *delirium.Node, inputs []native.Input, span int, cfg NestedConfig) (rts.OpSpec, error) {
	name := nd.Name
	var rule func() (*delirium.Graph, map[string]int)
	switch nd.Rule {
	case "dc":
		rule = func() (*delirium.Graph, map[string]int) { return dcGraph(name, span, cfg) }
	case "vortex":
		edges := g.InEdges(name)
		if len(edges) != 1 {
			return rts.OpSpec{}, fmt.Errorf("workload: vortex node %s needs exactly one predecessor, has %d", name, len(edges))
		}
		field := in.Array(edges[0].From)
		rule = func() (*delirium.Graph, map[string]int) { return vortexGraph(name, field, cfg), nil }
	case "random":
		rule = func() (*delirium.Graph, map[string]int) { return randomGraph(cfg.Seed, name), nil }
	default:
		return rts.OpSpec{}, fmt.Errorf("workload: exp node %s has unknown rule %q (want dc, vortex or random)", name, nd.Rule)
	}

	// children is filled by the expansion (or left empty at the base
	// case) and read by the join body, which the engines run only after
	// the whole sub-graph completed.
	var children [][]float64
	expand := func(depth int) (*rts.Expansion, error) {
		sub, spans := rule()
		if sub == nil {
			return nil, nil
		}
		bind, err := in.bindGraph(sub, cfg, inputs, spans)
		if err != nil {
			return nil, err
		}
		kids := make([][]float64, len(sub.Nodes))
		for i, c := range sub.Nodes {
			kids[i] = in.Array(c.Name)
		}
		children = kids
		return &rts.Expansion{Graph: sub, Bind: bind}, nil
	}
	return rts.OpSpec{
		Op:     sched.Op{Name: name, N: 1, Time: nestedJoinBody(name, inputs, &children, in.alloc(name, 1)), Bytes: 64},
		Mu:     1,
		Expand: expand,
	}, nil
}

// nestedJoinBody is the one-task body of an expanded operator's join:
// its base value, plus its inputs, plus the element-wise fold of every
// child array the expansion materialized. children is a pointer because
// the nested run fills the slice at expansion time, after the body
// closure is built.
func nestedJoinBody(name string, inputs []native.Input, children *[][]float64, arr []float64) func(int) float64 {
	return func(int) float64 {
		v := nestedVal(name, 0)
		for _, inp := range inputs {
			v += inp.Read(0, 1)
		}
		for _, c := range *children {
			for _, x := range c {
				v += x * 0.5
			}
		}
		arr[0] = v
		return 1
	}
}

// dcGraph is the dc rule for an operator covering span indices: Branch
// children of ⌈span/Branch⌉ indices (the last one takes the rest), each
// a leaf operator of that many tasks or, above Leaf, another dc node.
// Children are named by tree path ("root/1"), so the nested run and its
// static unroll allocate identical arrays; spans maps each dc child to
// its range. A span within Leaf is the base case: the operator keeps
// just its join task.
func dcGraph(name string, span int, cfg NestedConfig) (*delirium.Graph, map[string]int) {
	if span <= cfg.Leaf {
		return nil, nil
	}
	sub := delirium.NewGraph(name)
	spans := map[string]int{}
	step := (span + cfg.Branch - 1) / cfg.Branch
	for k, o := 0, 0; o < span; k, o = k+1, o+step {
		cspan := min(step, span-o)
		cname := fmt.Sprintf("%s/%d", name, k)
		if cspan > cfg.Leaf {
			sub.AddNode(&delirium.Node{Name: cname, Kind: delirium.Exp, Tasks: "1", Rule: "dc"})
			spans[cname] = cspan
		} else {
			sub.AddNode(&delirium.Node{Name: cname, Kind: delirium.Par, Tasks: strconv.Itoa(cspan)})
		}
	}
	return sub, spans
}

// vortexGraph is the vortex rule over a (settled) field array: cell c
// covers field[c·N/Cells : (c+1)·N/Cells); its intensity is the mean
// fractional part of the covered values, and intensity > Threshold
// refines fine (4× tasks). Each cell is one operator.
func vortexGraph(name string, field []float64, cfg NestedConfig) *delirium.Graph {
	n := len(field)
	sub := delirium.NewGraph(name)
	for c := 0; c < cfg.Cells; c++ {
		lo, hi := c*n/cfg.Cells, (c+1)*n/cfg.Cells
		if hi <= lo {
			hi = lo + 1
			if hi > n {
				lo, hi = n-1, n
			}
		}
		sum := 0.0
		for i := lo; i < hi; i++ {
			v := field[i]
			sum += v - float64(int(v))
		}
		intensity := sum / float64(hi-lo)
		tasks := hi - lo
		if intensity > cfg.Threshold {
			tasks *= 4
		}
		sub.AddNode(&delirium.Node{Name: fmt.Sprintf("%s/c%d", name, c), Kind: delirium.Par, Tasks: strconv.Itoa(tasks)})
	}
	return sub
}

// randomMaxDepth bounds the random rule's recursion: below this depth
// a sub-operator may itself be expandable.
const randomMaxDepth = 3

// randomGraph is the random rule: one to three sub-operators in a
// chain, each expandable (below randomMaxDepth) or an array operator of
// one to eight tasks, drawn from seed ⊕ HashName(name) alone. A nil
// result is the base case (fork-join degenerates to the join task).
func randomGraph(seed uint64, name string) *delirium.Graph {
	rng := stats.NewRNG(seed ^ native.HashName(name))
	depth := strings.Count(name, "/")
	if depth > 0 && rng.Bernoulli(0.25) {
		return nil
	}
	g := delirium.NewGraph(name)
	m := 1 + rng.Intn(3)
	for i := 0; i < m; i++ {
		sub := fmt.Sprintf("%s/%d", name, i)
		if depth+1 < randomMaxDepth && rng.Bernoulli(0.3) {
			g.AddNode(&delirium.Node{Name: sub, Kind: delirium.Exp, Tasks: "1", Rule: "random"})
		} else {
			g.AddNode(&delirium.Node{Name: sub, Kind: delirium.Par, Tasks: strconv.Itoa(1 + rng.Intn(8))})
		}
	}
	for i := 1; i < m; i++ {
		RandomEdge(rng, g, g.Nodes[i-1].Name, g.Nodes[i].Name)
	}
	return g
}

// RandomEdge adds one edge from → to with randomized attributes.
// Pipelining is requested freely — edges adjacent to expandable
// operators must be barrier-converted by every layer, and letting a
// generator ask for the illegal thing is exactly how that conversion
// gets exercised.
func RandomEdge(rng *stats.RNG, g *delirium.Graph, from, to string) {
	e := &delirium.Edge{From: from, To: to}
	if rng.Bernoulli(0.6) {
		e.Bytes = 64
		e.PerTask = rng.Bernoulli(0.5)
	}
	if rng.Bernoulli(0.4) {
		e.Pipelined = true
		e.Chain = rng.Bernoulli(0.3)
	}
	g.AddEdge(e)
}
