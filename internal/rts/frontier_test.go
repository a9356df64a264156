package rts

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/machine"
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
	f         *Frontier
	ops       []propOp
	maxDepth  int // deepest expansion spliced so far
	nilBases  int // base-case (nil) expansions seen
}

// taskCounts mixes zero-task operators, single tasks and coprime sizes,
// where i·pn/n lands on every residue. Under the zero cost model a
// pipelined producer's batch is ⌊n/16⌋, at least 1, so the sizes from
// 33 up draw batches 2, 3 and 4.
var taskCounts = []int{0, 0, 1, 2, 3, 5, 7, 8, 9, 13, 16, 24, 33, 50, 64}

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
	// Without pipelining each operator also waits for the previous
	// operator of its graph.
	for op := first + 1; op < w.f.Len() && !w.pipelined; op++ {
		w.ops[op].in = append(w.ops[op].in, propEdge{from: op - 1})
	}
}

// full reports whether op has completed: every task done and, for a
// zero-task operator, which has no task to wait for, every producer
// full.
func (w *propWorld) full(op int) bool {
	o := &w.ops[op]
	if o.n > 0 {
		return o.doneCount == o.n
	}
	for _, e := range o.in {
		if !w.full(e.from) {
			return false
		}
	}
	return true
}

// drained reports whether every operator in op's sub-graph, at any
// depth, has completed.
func (w *propWorld) drained(op int) bool {
	for c := range w.ops {
		if w.ops[c].parent == op && (!w.full(c) || !w.drained(c)) {
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
			if !e.pipelined || p.n == 0 {
				// A plain edge: the producer must be full, and a zero-task
				// one only once its own producers are.
				if !w.full(e.from) {
					w.t.Fatalf("op %s task %d returned before producer %s was full", w.f.Name(r.Op), i, w.f.Name(e.from))
				}
				continue
			}
			for j := 0; j <= i*p.n/o.n; j++ {
				if !p.done[j] {
					w.t.Fatalf("op %s task %d returned before task %d of pipelined producer %s completed",
						w.f.Name(r.Op), i, j, w.f.Name(e.from))
				}
			}
		}
	}
}

// splice runs one due expansion and installs it, mirroring the new
// operators.
func (w *propWorld) splice(x Expandable, pr *Progress) {
	for _, e := range w.ops[x.Op].in {
		if !w.full(e.from) {
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

// absorb acts on one Progress: checks and pools the enabled ranges,
// runs the due expansions and splices them, to a fixpoint.
func (w *propWorld) absorb(pr *Progress, pool *[]Range) {
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
	// What Enabled reports is exactly what has been handed out, and what
	// the gate allows: no change to the gate went unreported. Prefix is
	// the true contiguous prefix, and Full is the harness's full.
	for op := range w.ops {
		o := &w.ops[op]
		handed, prefix := 0, 0
		for handed < o.n && o.returned[handed] {
			handed++
		}
		for prefix < o.n && o.done[prefix] {
			prefix++
		}
		if got, gate := w.f.Enabled(op), w.f.gate(op); got != handed || gate != handed {
			w.t.Fatalf("op %s: Enabled = %d and gate = %d but %d tasks were handed out", w.f.Name(op), got, gate, handed)
		}
		if got := w.f.Full(op); got != w.full(op) {
			w.t.Fatalf("op %s: Full = %v, want %v", w.f.Name(op), got, !got)
		}
		if got := w.f.Prefix(op); got != prefix {
			w.t.Fatalf("op %s: Prefix = %d, want %d", w.f.Name(op), got, prefix)
		}
	}
}

func runFrontierProperty(t *testing.T, seed int64, pipelined bool, batches map[int]bool) (maxDepth, nilBases int) {
	rng := rand.New(rand.NewSource(seed))
	w := &propWorld{t: t, pipelined: pipelined}
	g, bind := w.genGraph(rng, fmt.Sprintf("g%d", seed), 0)
	f, err := NewFrontier(g, bind, pipelined, machine.Config{}, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	w.f = f
	w.learn(g, 0, -1)

	var pr Progress
	var pool []Range
	f.Start(&pr)
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
		f.Complete(r.Op, lo, hi, &pr)
		w.absorb(&pr, &pool)
	}
	// Every completion is in: everything must have been returned.
	if left := f.Outstanding(); left != 0 {
		t.Fatalf("seed %d: %d tasks outstanding with nothing enabled", seed, left)
	}
	for op := range w.ops {
		if !f.Full(op) {
			t.Fatalf("seed %d: op %s completed %d of %d tasks and is not full", seed, f.Name(op), w.ops[op].doneCount, w.ops[op].n)
		}
		for _, ie := range f.ops[op].in {
			if ie.batch > 0 {
				batches[ie.batch] = true
			}
		}
	}
	return w.maxDepth, w.nilBases
}

func TestFrontierProperties(t *testing.T) {
	maxDepth, nilBases := 0, 0
	batches := map[int]bool{}
	for seed := int64(1); seed <= 150; seed++ {
		for _, pipelined := range []bool{true, false} {
			d, nb := runFrontierProperty(t, seed, pipelined, batches)
			maxDepth = max(maxDepth, d)
			nilBases += nb
		}
	}
	if maxDepth < 3 {
		t.Fatalf("deepest expansion was %d levels, want at least 3", maxDepth)
	}
	if nilBases == 0 {
		t.Fatal("no base-case (nil) expansion was exercised")
	}
	for b := 1; b <= 4; b++ {
		if !batches[b] {
			t.Fatalf("no pipelined edge had batch %d (seen %v)", b, batches)
		}
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
	if _, err := NewFrontier(g, bind, true, machine.Config{}, 1, Limits{Tasks: 1}); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("2-task operators under a 1-task limit: error = %v", err)
	}
	f, err := NewFrontier(g, bind, true, machine.Config{}, 1, Limits{Ops: 3, Tasks: 2})
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

// TestFrontierBarrieredSerialises pins the barriered modes' rule:
// without pipelining a graph's operators run one after another in
// topological order, each waiting for the previous operator, even where
// the graph has no edge between them. It covers a zero-task operator in
// between, which fires when its predecessor is full, the operators of an
// expansion, and the operator after an expandable one, which waits for
// its join.
func TestFrontierBarrieredSerialises(t *testing.T) {
	body := func(n int) OpSpec { return OpSpec{Op: sched.Op{N: n, Time: func(int) float64 { return 1 }}} }
	g := delirium.NewGraph("top")
	for _, nd := range []*delirium.Node{
		{Name: "a", Kind: delirium.Par}, {Name: "z", Kind: delirium.Par},
		{Name: "b", Kind: delirium.Par}, {Name: "x", Kind: delirium.Exp, Rule: "r"},
		{Name: "c", Kind: delirium.Par},
	} {
		if err := g.AddNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	sub := delirium.NewGraph("sub")
	for _, name := range []string{"s0", "s1"} {
		if err := sub.AddNode(&delirium.Node{Name: name, Kind: delirium.Par}); err != nil {
			t.Fatal(err)
		}
	}
	bind := func(name string) OpSpec {
		switch name {
		case "z":
			return body(0)
		case "x":
			return OpSpec{Op: sched.Op{N: 1}, Expand: func(int) (*Expansion, error) {
				return &Expansion{Graph: sub, Bind: func(string) OpSpec { return body(3) }}, nil
			}}
		}
		return body(2)
	}
	// With pipelining allowed, the independent operators all start.
	pf, err := NewFrontier(g, bind, true, machine.Config{}, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var pr Progress
	if pf.Start(&pr); pf.Enabled(pf.Index("b")) != 2 || pf.Enabled(pf.Index("c")) != 2 {
		t.Fatal("pipelined frontier gates independent operators")
	}

	f, err := NewFrontier(g, bind, false, machine.Config{}, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	pr.Reset()
	f.Start(&pr)
	a, z, b, x, c := f.Index("a"), f.Index("z"), f.Index("b"), f.Index("x"), f.Index("c")
	want := func(step string, op, n int) {
		t.Helper()
		if got := f.Enabled(op); got != n {
			t.Fatalf("%s: Enabled(%s) = %d, want %d", step, f.Name(op), got, n)
		}
	}
	want("start", a, 2)
	want("start", b, 0) // behind a, across the zero-task z
	f.Complete(a, 0, 1, &pr)
	want("a half done", b, 0)
	if f.Full(z) {
		t.Fatal("z fired before a was full")
	}
	f.Complete(a, 1, 2, &pr)
	want("a full", b, 2)
	if !f.Full(z) {
		t.Fatal("z did not fire when a was full")
	}
	pr.Reset()
	f.Complete(b, 0, 2, &pr)
	if len(pr.Expand) != 1 || pr.Expand[0].Op != x {
		t.Fatalf("b full: Expand = %+v, want x", pr.Expand)
	}
	exp, err := pr.Expand[0].Expand()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Splice(x, exp, &pr); err != nil {
		t.Fatal(err)
	}
	s0, s1 := f.Index("s0"), f.Index("s1")
	want("spliced", s0, 3)
	want("spliced", s1, 0) // inside the expansion, behind s0
	want("spliced", c, 0)
	f.Complete(s0, 0, 3, &pr)
	want("s0 full", s1, 3)
	f.Complete(s1, 0, 3, &pr)
	want("sub-graph drained", x, 1)
	want("sub-graph drained", c, 0) // behind x's join
	f.Complete(x, 0, 1, &pr)
	want("join done", c, 2)
	f.Complete(c, 0, 2, &pr)
	if f.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after every task", f.Outstanding())
	}
}

// zeroTaskGraph decodes src and binds it for the zero-task tests: an
// operator named z… has no tasks, x… expands into sub, every other
// operator has two tasks.
func zeroTaskGraph(t *testing.T, src string, sub *delirium.Graph) (*delirium.Graph, Binder) {
	t.Helper()
	g, err := delirium.Decode(src)
	if err != nil {
		t.Fatal(err)
	}
	var bind Binder
	bind = func(name string) OpSpec {
		spec := OpSpec{Op: sched.Op{Name: name, N: 2, Time: func(int) float64 { return 1 }}}
		switch name[0] {
		case 'z':
			spec.Op.N = 0
		case 'x':
			spec.Expand = func(int) (*Expansion, error) { return &Expansion{Graph: sub, Bind: bind}, nil }
		}
		return spec
	}
	return g, bind
}

// TestFrontierZeroTaskFires pins the fire rule: an operator without
// tasks completes once every producer is full, and only then opens its
// consumers, in split mode and barriered alike. The cases are the
// a → z → b probe, a chain of two zero-task operators, a zero-task
// operator inside an expansion and a zero-task source.
func TestFrontierZeroTaskFires(t *testing.T) {
	sub, err := delirium.Decode("graph sub\nnode s0 kind=par\nnode zs kind=par\nnode s1 kind=par\nedge s0 -> zs\nedge zs -> s1\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, pipelined := range []bool{true, false} {
		for _, c := range []struct {
			name, src string
			// steps complete the named operator whole, in order; want[i]
			// is the operators whose ranges Start (i = 0) or step i
			// reported.
			steps []string
			want  [][]string
		}{
			{"probe", "graph g\nnode a kind=par\nnode z kind=par\nnode b kind=par\nedge a -> z pipelined\nedge z -> b pipelined\n",
				[]string{"a", "b"}, [][]string{{"a"}, {"b"}, nil}},
			{"chain", "graph g\nnode a kind=par\nnode z1 kind=par\nnode z2 kind=par\nnode b kind=par\nedge a -> z1\nedge z1 -> z2\nedge z2 -> b\n",
				[]string{"a", "b"}, [][]string{{"a"}, {"b"}, nil}},
			{"expansion", "graph g\nnode a kind=par\nnode x kind=exp rule=r\nnode b kind=par\nedge a -> x\nedge x -> b\n",
				[]string{"a", "s0", "s1", "x", "b"}, [][]string{{"a"}, {"s0"}, {"s1"}, {"x"}, {"b"}, nil}},
			{"source", "graph g\nnode z kind=par\nnode b kind=par\nedge z -> b\n",
				[]string{"b"}, [][]string{{"b"}, nil}},
		} {
			g, bind := zeroTaskGraph(t, c.src, sub)
			f, err := NewFrontier(g, bind, pipelined, machine.Config{}, 1, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			var pr Progress
			report := func(i int) {
				t.Helper()
				var got []string
				for _, x := range pr.Expand {
					exp, err := x.Expand()
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Splice(x.Op, exp, &pr); err != nil {
						t.Fatal(err)
					}
				}
				for _, r := range pr.Enabled {
					got = append(got, f.Name(r.Op))
				}
				if fmt.Sprint(got) != fmt.Sprint(c.want[i]) {
					t.Fatalf("%s (pipelined %v), step %d: ranges of %v, want %v", c.name, pipelined, i, got, c.want[i])
				}
				for op := 0; op < f.Len(); op++ {
					if f.N(op) == 0 && f.Full(op) != f.ready(&f.ops[op]) {
						t.Fatalf("%s (pipelined %v), step %d: %s full = %v with its producers full = %v",
							c.name, pipelined, i, f.Name(op), f.Full(op), !f.Full(op))
					}
				}
				pr.Reset()
			}
			f.Start(&pr)
			report(0)
			for i, name := range c.steps {
				op := f.Index(name)
				f.Complete(op, 0, f.N(op), &pr)
				report(i + 1)
			}
			if f.Outstanding() != 0 {
				t.Fatalf("%s (pipelined %v): %d tasks outstanding", c.name, pipelined, f.Outstanding())
			}
		}
	}
}
