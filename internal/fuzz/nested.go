package fuzz

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"orchestra/internal/compile"
	"orchestra/internal/delirium"
	"orchestra/internal/interp"
	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/stats"
)

// The nested rung: random recursive dataflow programs. The generator
// emits a small top-level graph whose Exp nodes carry seed-derived
// expansion rules — each expansion is itself a random graph that may
// contain further Exp nodes, bounded in depth — over array kernels
// whose task values are pure functions of (operator name, task index,
// inputs). The oracle is the statically unrolled reference:
// compile.Unroll flattens the same program ahead of time, the flat
// graph runs once to produce the reference digest, and every row of
// the rung (simulator and native, several processor counts and modes,
// plus a second flat run on the native backend) must reproduce that
// digest bitwise. Runtime expansion may
// only ever change the schedule; any value drift is a gating,
// splicing, or cross-level-stealing defect.
//
// Determinism across instances is by construction: an expansion rule's
// random choices derive from (campaign seed ⊕ hash(operator name)),
// and operator names are tree paths, so the runtime expansion inside
// an engine and the eager expansion inside the unroller materialize
// identical sub-graphs without sharing state.

// nestedMaxDepth bounds the generator's structural recursion: below
// this depth a sub-operator may itself be expandable.
const nestedMaxDepth = 3

// GenNested derives a random recursive program from seed.
func GenNested(seed uint64) *Case {
	rng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	g := delirium.NewGraph(fmt.Sprintf("nested-%d", seed))
	k := 3 + rng.Intn(3) // 3..5 top-level operators
	expAt := -1
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("t%d", i)
		if rng.Bernoulli(0.35) {
			g.AddNode(&delirium.Node{Name: name, Kind: delirium.Exp, Tasks: "1", Rule: "fz"})
			expAt = i
		} else {
			g.AddNode(&delirium.Node{Name: name, Kind: delirium.Par, Tasks: strconv.Itoa(1 + rng.Intn(12))})
		}
	}
	if expAt < 0 {
		// Always at least one expandable operator — that is the rung.
		mid := k / 2
		g.Nodes[mid].Kind = delirium.Exp
		g.Nodes[mid].Tasks = "1"
		g.Nodes[mid].Rule = "fz"
	}
	for i := 1; i < k; i++ {
		addNestedEdge(rng, g, g.Nodes[i-1].Name, g.Nodes[i].Name)
		if j := rng.Intn(i); j < i-1 && rng.Bernoulli(0.4) {
			addNestedEdge(rng, g, g.Nodes[j].Name, g.Nodes[i].Name)
		}
	}
	return &Case{Seed: seed, Graph: g}
}

// addNestedEdge adds one edge with randomized attributes. Pipelining
// is requested freely — edges adjacent to expandable operators must be
// barrier-converted by every layer, and letting the generator ask for
// the illegal thing is exactly how that conversion gets exercised.
func addNestedEdge(rng *stats.RNG, g *delirium.Graph, from, to string) {
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

// nestedInst is one run's worth of state: fresh zeroed arrays, a
// binder whose Exp specs regenerate their sub-graphs from the seed.
type nestedInst struct {
	seed uint64
	mu   sync.Mutex
	st   *interp.State
}

func (in *nestedInst) alloc(name string, n int) []float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.st.Alloc(name, n)
	return in.st.Arrays[name]
}

func (in *nestedInst) arr(name string) []float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.st.Arrays[name]
}

func newNestedOp(name string, n int, body func(int) float64) sched.Op {
	return sched.Op{Name: name, N: n, Time: body, Bytes: 64}
}

func (in *nestedInst) digest() string { return native.StateDigest(in.st) }

// nestedCaseVal is the pure base value of task i of an operator.
func nestedCaseVal(name string, i int) float64 {
	h := nestedCaseHash(name)
	return float64((h*37+uint64(i)*11)%2003)/2003 + float64(h%89)/89
}

func nestedCaseHash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// nestedDepth is an operator's structural depth: sub-operators are
// named by tree path.
func nestedDepth(name string) int { return strings.Count(name, "/") }

// bindNested builds the binder of one (sub-)graph over the instance's
// image. parentIn carries the expansion ancestors' input arrays: every
// sub-operator also reads them, so a sub-task released before the
// ancestor's predecessors settled produces wrong bits — the oracle
// sees premature expansion, not just misordered sub-graphs.
func (in *nestedInst) bindNested(g *delirium.Graph, parentIn []nestedRead) rts.Binder {
	specs := map[string]rts.OpSpec{}
	// The generator declares nodes in topological order, so a reader's
	// producer array always exists by the time its closure captures it.
	for _, nd := range g.Nodes {
		name := nd.Name
		reads := append([]nestedRead{}, parentIn...)
		for _, e := range g.InEdges(name) {
			if e.Carried {
				continue
			}
			reads = append(reads, nestedRead{from: e.From, arr: in.arr(e.From), pipelined: e.Pipelined})
		}
		sortNestedReads(reads)
		if nd.Kind == delirium.Exp {
			specs[name] = in.expandableSpec(name, reads)
			continue
		}
		n, _ := strconv.Atoi(nd.Tasks)
		arr := in.alloc(name, n)
		body := func(i int) float64 {
			v := nestedCaseVal(name, i)
			for _, r := range reads {
				v += r.read(i, n)
			}
			arr[i] = v
			return 1
		}
		specs[name] = rts.OpSpec{Op: newNestedOp(name, n, body), Mu: 1}
	}
	return func(name string) rts.OpSpec { return specs[name] }
}

// expandableSpec builds an Exp operator: a join over its children plus
// the seed-derived expansion rule.
func (in *nestedInst) expandableSpec(name string, reads []nestedRead) rts.OpSpec {
	arr := in.alloc(name, 1)
	var children [][]float64
	join := func(int) float64 {
		v := nestedCaseVal(name, 0)
		for _, r := range reads {
			v += r.read(0, 1)
		}
		for _, c := range children {
			for _, x := range c {
				v += x * 0.5
			}
		}
		arr[0] = v
		return 1
	}
	expand := func(depth int) (*rts.Expansion, error) {
		sub := genNestedExpansion(in.seed, name)
		if sub == nil {
			return nil, nil
		}
		bind := in.bindNested(sub, reads)
		for _, nd := range sub.Nodes {
			children = append(children, in.arr(nd.Name))
		}
		return &rts.Expansion{Graph: sub, Bind: bind}, nil
	}
	return rts.OpSpec{Op: newNestedOp(name, 1, join), Mu: 1, Expand: expand}
}

// genNestedExpansion derives the sub-graph of one expandable operator
// from (seed, name) alone — deterministic wherever it is invoked. A
// nil result is the base case (fork-join degenerates to the join
// task).
func genNestedExpansion(seed uint64, name string) *delirium.Graph {
	rng := stats.NewRNG(seed ^ nestedCaseHash(name))
	depth := nestedDepth(name)
	if depth > 0 && rng.Bernoulli(0.25) {
		return nil
	}
	g := delirium.NewGraph(name)
	m := 1 + rng.Intn(3)
	for i := 0; i < m; i++ {
		sub := fmt.Sprintf("%s/%d", name, i)
		if depth+1 < nestedMaxDepth && rng.Bernoulli(0.3) {
			g.AddNode(&delirium.Node{Name: sub, Kind: delirium.Exp, Tasks: "1", Rule: "fz"})
		} else {
			g.AddNode(&delirium.Node{Name: sub, Kind: delirium.Par, Tasks: strconv.Itoa(1 + rng.Intn(8))})
		}
	}
	for i := 1; i < m; i++ {
		addNestedEdge(rng, g, g.Nodes[i-1].Name, g.Nodes[i].Name)
	}
	return g
}

// nestedRead reads one input array under the kernel contract.
type nestedRead struct {
	from      string
	arr       []float64
	pipelined bool
}

func (r nestedRead) read(i, n int) float64 {
	pn := len(r.arr)
	if pn == 0 {
		return 0
	}
	if r.pipelined {
		return r.arr[i*pn/n]
	}
	return r.arr[(i*31+7)%pn]
}

// sortNestedReads orders inputs canonically by producer name — float
// addition is not associative, so every execution must fold them the
// same way.
func sortNestedReads(reads []nestedRead) {
	for i := 1; i < len(reads); i++ {
		for j := i; j > 0 && reads[j].from < reads[j-1].from; j-- {
			reads[j], reads[j-1] = reads[j-1], reads[j]
		}
	}
}

// Nested instances keep no failure record and no order ledger: a wrong
// schedule can only show in the values.
func (*nestedInst) Failure() string      { return "" }
func (*nestedInst) Violations() []string { return nil }

// nestedSubject builds the nested rung's subject: the case's graph,
// bound afresh per row, with the digest of the statically unrolled
// graph (a Flat row), run on one simulated processor, as reference. It returns nil when the report is already decided.
func nestedSubject(c *Case, rep *Report) *subject {
	rep.Kinds = map[string]int{}
	for _, nd := range c.Graph.Nodes {
		if nd.Kind == delirium.Exp {
			rep.Kinds["exp"]++
		} else {
			rep.Kinds["par"]++
		}
	}
	if err := c.Graph.Validate(); err != nil {
		rep.Skip = fmt.Sprintf("generated graph invalid: %v", err)
		return nil
	}
	s := &subject{
		graph: c.Graph,
		bind: func(Config) (*rts.Bound, instance, error) {
			in := &nestedInst{seed: c.Seed, st: interp.NewState()}
			return rts.BindClosure(in.bindNested(c.Graph, nil)), in, nil
		},
	}
	// An unrolling that leaves expandable operators behind is no static
	// reference; one that fails shows as the reference row's error.
	probe, _, _ := s.bind(Config{})
	if fg, _, err := compile.Unroll(c.Graph, probe.Binder()); err == nil && fg.HasExpansions() {
		rep.Divs = append(rep.Divs, Divergence{Config: "unroll", Kind: "unroll-residue",
			Detail: "unrolled graph still has expandable operators"})
		return nil
	}
	ref, ok := s.check(Config{
		Name:    "flat-sim/p=1/split",
		Backend: sim(1),
		Opts:    rts.RunOpts{Processors: 1, Mode: rts.ModeSplit},
		Flat:    true,
	}, rep, nil)
	if !ok {
		return nil
	}
	want := ref.(*nestedInst).digest()
	s.diff = func(in instance) string {
		if got := in.(*nestedInst).digest(); got != want {
			return fmt.Sprintf("digest %s != statically-unrolled reference %s", got[:16], want[:16])
		}
		return ""
	}
	return s
}
