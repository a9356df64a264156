package rts

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/sched"
)

// Driver-free properties of the Frontier: seeded random nested DAGs are
// completed in random chunk orders by a harness that keeps its own
// record of what finished, and every range the Frontier hands out is
// checked against the dataflow contract from that record alone.

// propOp is the harness's view of one scheduled operator.
type propOp struct {
	n          int
	expandable bool
	parent     int // expandable operator whose sub-graph holds it, or -1
	in         []propEdge
	returned   []bool
	done       []bool
	doneCount  int
}

type propEdge struct {
	from      int
	pipelined bool
}

// propWorld generates the graphs and mirrors the Frontier's operator
// table as the harness learns about it.
type propWorld struct {
	t         *testing.T
	pipelined bool
	push      bool // drive through Progress ranges; else poll Enabled and Due
	f         *Frontier
	ops       []propOp
	maxDepth  int // deepest expansion spliced so far
	nilBases  int // base-case (nil) expansions seen
}

// taskCounts mixes zero-task operators, single tasks and coprime sizes,
// where i·pn/n lands on every residue.
var taskCounts = []int{0, 0, 1, 2, 3, 5, 7, 8, 9, 13, 16, 24}

// genGraph builds a random DAG whose node names extend path. The first
// node of every graph above depth 3 is expandable, so each top-level
// expandable chain nests at least three deep; other nodes expand with
// probability 1/4.
func (w *propWorld) genGraph(rng *rand.Rand, path string, depth int) (*delirium.Graph, Binder) {
	g := delirium.NewGraph(path)
	n := 2 + rng.Intn(4)
	specs := map[string]OpSpec{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s.%d", path, i)
		nd := &delirium.Node{Name: name, Kind: delirium.Par}
		spec := OpSpec{Op: sched.Op{Name: name, N: taskCounts[rng.Intn(len(taskCounts))], Time: func(int) float64 { return 1 }}}
		if depth < MaxExpandDepth-1 && ((i == 0 && depth < 3) || rng.Intn(4) == 0) {
			nd.Kind, nd.Rule = delirium.Exp, "prop"
			seed := rng.Int63()
			spec.Expand = func(d int) (*Expansion, error) {
				if d != depth {
					return nil, fmt.Errorf("expanded at depth %d, generated at %d", d, depth)
				}
				sub := rand.New(rand.NewSource(seed))
				if depth >= 3 && sub.Intn(2) == 0 || depth >= 5 {
					return nil, nil // base case
				}
				sg, sb := w.genGraph(sub, name, depth+1)
				return &Expansion{Graph: sg, Bind: sb}, nil
			}
		}
		if err := g.AddNode(nd); err != nil {
			w.t.Fatal(err)
		}
		specs[name] = spec
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				g.AddEdge(&delirium.Edge{From: g.Nodes[i].Name, To: g.Nodes[j].Name, Pipelined: rng.Intn(2) == 0})
			}
		}
	}
	if rng.Intn(3) == 0 {
		// A loop-carried back edge: no engine may wait on it.
		g.AddEdge(&delirium.Edge{From: g.Nodes[n-1].Name, To: g.Nodes[0].Name, Carried: true, Pipelined: true})
	}
	if err := g.Validate(); err != nil {
		w.t.Fatal(err)
	}
	return g, func(name string) OpSpec { return specs[name] }
}

// learn mirrors the operators of g — the Frontier's [first, Len) — into
// the harness.
func (w *propWorld) learn(g *delirium.Graph, first, parent int) {
	for op := first; op < w.f.Len(); op++ {
		n := w.f.N(op)
		w.ops = append(w.ops, propOp{n: n, expandable: w.f.Spec(op).Expand != nil, parent: parent,
			returned: make([]bool, n), done: make([]bool, n)})
	}
	for _, e := range g.Edges {
		if e.Carried {
			continue
		}
		from, to := w.f.Index(e.From), w.f.Index(e.To)
		pip := e.Pipelined && w.pipelined && !w.ops[from].expandable && !w.ops[to].expandable
		w.ops[to].in = append(w.ops[to].in, propEdge{from: from, pipelined: pip})
	}
}

// drained reports whether every operator in op's sub-graph, at any
// depth, has completed.
func (w *propWorld) drained(op int) bool {
	for c := range w.ops {
		if w.ops[c].parent == op && (w.ops[c].doneCount < w.ops[c].n || !w.drained(c)) {
			return false
		}
	}
	return true
}

// checkRange asserts the dataflow contract for a range the Frontier
// just returned, then marks its tasks returned.
func (w *propWorld) checkRange(r Range) {
	o := &w.ops[r.Op]
	if r.Lo < 0 || r.Hi > o.n || r.Lo >= r.Hi {
		w.t.Fatalf("op %s: malformed range [%d,%d) of %d tasks", w.f.Name(r.Op), r.Lo, r.Hi, o.n)
	}
	if o.expandable && !w.drained(r.Op) {
		w.t.Fatalf("op %s: join task returned before its sub-graph drained", w.f.Name(r.Op))
	}
	for i := r.Lo; i < r.Hi; i++ {
		if o.returned[i] {
			w.t.Fatalf("op %s: task %d returned twice", w.f.Name(r.Op), i)
		}
		o.returned[i] = true
		for _, e := range o.in {
			p := &w.ops[e.from]
			need := p.n // plain edge: the producer must be full
			if e.pipelined && p.n > 0 {
				need = i*p.n/o.n + 1 // tasks [0, i·pn/n]
			}
			for j := 0; j < need; j++ {
				if !p.done[j] {
					w.t.Fatalf("op %s task %d returned before task %d of producer %s completed (pipelined=%v)",
						w.f.Name(r.Op), i, j, w.f.Name(e.from), e.pipelined)
				}
			}
		}
	}
}

// splice runs one due expansion and installs it, mirroring the new
// operators. pr is nil for a polling harness.
func (w *propWorld) splice(x Expandable, pr *Progress) {
	for _, e := range w.ops[x.Op].in {
		if p := &w.ops[e.from]; p.doneCount < p.n {
			w.t.Fatalf("op %s due to expand before producer %s completed", w.f.Name(x.Op), w.f.Name(e.from))
		}
	}
	exp, err := x.Expand()
	if err != nil {
		w.t.Fatal(err)
	}
	first, err := w.f.Splice(x.Op, exp, pr)
	if err != nil {
		w.t.Fatal(err)
	}
	if exp == nil {
		w.nilBases++
		return
	}
	w.learn(exp.Graph, first, x.Op)
	if d := strings.Count(w.f.Name(first), "."); d > w.maxDepth {
		w.maxDepth = d
	}
}

// poll is absorb for a driver that passes the Frontier no Progress: it
// splices what Due reports, to a fixpoint, then reads Enabled and treats
// whatever lies past the tasks already handed out as newly enabled.
func (w *propWorld) poll(pr *Progress, pool *[]Range) {
	for {
		if w.f.Due(pr); len(pr.Expand) == 0 {
			break
		}
		for _, x := range pr.Expand {
			w.splice(x, nil)
		}
		pr.Reset()
	}
	for op := range w.ops {
		handed := 0
		for handed < w.ops[op].n && w.ops[op].returned[handed] {
			handed++
		}
		if en := w.f.Enabled(op); en > handed {
			w.checkRange(Range{op, handed, en})
			*pool = append(*pool, Range{op, handed, en})
		}
	}
}

// absorb acts on one Progress: checks and pools the enabled ranges,
// runs the due expansions and splices them, to a fixpoint.
func (w *propWorld) absorb(pr *Progress, pool *[]Range) {
	if !w.push {
		w.poll(pr, pool)
	}
	for i, j := 0, 0; i < len(pr.Enabled) || j < len(pr.Expand); j++ {
		for ; i < len(pr.Enabled); i++ {
			w.checkRange(pr.Enabled[i])
			*pool = append(*pool, pr.Enabled[i])
		}
		if j < len(pr.Expand) {
			w.splice(pr.Expand[j], pr)
		}
	}
	pr.Reset()
	// Push and pull views agree: what Enabled reports is exactly what
	// has been handed out, and Prefix is the true contiguous prefix.
	for op := range w.ops {
		o := &w.ops[op]
		handed, prefix := 0, 0
		for handed < o.n && o.returned[handed] {
			handed++
		}
		for prefix < o.n && o.done[prefix] {
			prefix++
		}
		if got := w.f.Enabled(op); got != handed {
			w.t.Fatalf("op %s: Enabled = %d but %d tasks were handed out", w.f.Name(op), got, handed)
		}
		if got := w.f.Prefix(op); got != prefix {
			w.t.Fatalf("op %s: Prefix = %d, want %d", w.f.Name(op), got, prefix)
		}
	}
}

func runFrontierProperty(t *testing.T, seed int64, pipelined, push bool) (maxDepth, nilBases int) {
	rng := rand.New(rand.NewSource(seed))
	w := &propWorld{t: t, pipelined: pipelined, push: push}
	g, bind := w.genGraph(rng, fmt.Sprintf("g%d", seed), 0)
	batch := 1 + rng.Intn(4)
	f, err := NewFrontier(g, bind, pipelined, func(OpSpec) int { return batch }, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	w.f = f
	w.learn(g, 0, -1)

	var pr Progress
	var pool []Range
	arg := &pr // what the Frontier is handed
	if push {
		f.Start(arg)
	} else {
		arg = nil
	}
	w.absorb(&pr, &pool)
	for len(pool) > 0 {
		// Complete a random piece of a random enabled range; what is left
		// of the range goes back to the pool.
		k := rng.Intn(len(pool))
		r := pool[k]
		pool[k] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		lo := r.Lo + rng.Intn(r.Hi-r.Lo)
		hi := lo + 1 + rng.Intn(r.Hi-lo)
		if r.Lo < lo {
			pool = append(pool, Range{r.Op, r.Lo, lo})
		}
		if hi < r.Hi {
			pool = append(pool, Range{r.Op, hi, r.Hi})
		}
		o := &w.ops[r.Op]
		for i := lo; i < hi; i++ {
			o.done[i] = true
		}
		o.doneCount += hi - lo
		f.Complete(r.Op, lo, hi, arg)
		w.absorb(&pr, &pool)
	}
	// Every completion is in: everything must have been returned.
	if left := f.Outstanding(); left != 0 {
		t.Fatalf("seed %d: %d tasks outstanding with nothing enabled", seed, left)
	}
	for op := range w.ops {
		if o := &w.ops[op]; o.doneCount != o.n {
			t.Fatalf("seed %d: op %s completed %d of %d tasks", seed, f.Name(op), o.doneCount, o.n)
		}
	}
	return w.maxDepth, w.nilBases
}

func TestFrontierProperties(t *testing.T) {
	maxDepth, nilBases := 0, 0
	for seed := int64(1); seed <= 150; seed++ {
		for _, pipelined := range []bool{true, false} {
			for _, push := range []bool{true, false} {
				d, nb := runFrontierProperty(t, seed, pipelined, push)
				maxDepth = max(maxDepth, d)
				nilBases += nb
			}
		}
	}
	if maxDepth < 3 {
		t.Fatalf("deepest expansion was %d levels, want at least 3", maxDepth)
	}
	if nilBases == 0 {
		t.Fatal("no base-case (nil) expansion was exercised")
	}
}

// TestFrontierSpliceRejects pins that a refused expansion leaves the
// operator table as it was.
func TestFrontierSpliceRejects(t *testing.T) {
	g := delirium.NewGraph("top")
	for _, nd := range []*delirium.Node{{Name: "a", Kind: delirium.Par}, {Name: "x", Kind: delirium.Exp, Rule: "r"}} {
		if err := g.AddNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	g.AddEdge(&delirium.Edge{From: "a", To: "x"})
	body := sched.Op{N: 2, Time: func(int) float64 { return 1 }}
	bind := func(name string) OpSpec {
		if name == "x" {
			return OpSpec{Op: body, Expand: func(int) (*Expansion, error) { return nil, nil }}
		}
		return OpSpec{Op: body}
	}
	if _, err := NewFrontier(g, bind, true, nil, Limits{Tasks: 1}); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("2-task operators under a 1-task limit: error = %v", err)
	}
	f, err := NewFrontier(g, bind, true, nil, Limits{Ops: 3, Tasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	var pr Progress
	f.Start(&pr)
	f.Complete(0, 0, 2, &pr)
	if len(pr.Expand) != 1 || pr.Expand[0].Op != 1 {
		t.Fatalf("Expand = %+v, want operator 1", pr.Expand)
	}
	sub := delirium.NewGraph("sub")
	if err := sub.AddNode(&delirium.Node{Name: "a", Kind: delirium.Par}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Splice(1, &Expansion{Graph: sub, Bind: bind}, &pr); err == nil || !strings.Contains(err.Error(), "redeclares") {
		t.Fatalf("redeclaring expansion: error = %v", err)
	}
	mismatch := delirium.NewGraph("sub2")
	if err := mismatch.AddNode(&delirium.Node{Name: "y", Kind: delirium.Exp, Rule: "r"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Splice(1, &Expansion{Graph: mismatch, Bind: bind}, &pr); err == nil || !strings.Contains(err.Error(), "no Expand rule") {
		t.Fatalf("unbound expandable sub-operator: error = %v", err)
	}
	wide := delirium.NewGraph("sub3")
	for _, name := range []string{"p", "q"} {
		if err := wide.AddNode(&delirium.Node{Name: name, Kind: delirium.Par}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Splice(1, &Expansion{Graph: wide, Bind: bind}, &pr); err == nil || !strings.Contains(err.Error(), "4 operators exceed") {
		t.Fatalf("expansion past the operator limit: error = %v", err)
	}
	if len(pr.Enabled) != 1 || len(pr.Expand) != 1 {
		t.Fatalf("refused splices reported progress: %+v", pr)
	}
	if f.Len() != 2 || f.Outstanding() != 1 {
		t.Fatalf("after refused splices: Len %d Outstanding %d, want 2 and 1", f.Len(), f.Outstanding())
	}
}
