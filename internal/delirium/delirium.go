// Package delirium implements the coordination-language intermediate
// form the compiler emits (§3.4): a coarse-grained dataflow graph
// summarizing the exposed parallelism. Nodes are sequential sections or
// data-parallel operators; edges carry data-size annotations the
// runtime uses to estimate communication costs. Pipelined edges mark
// producer/consumer pairs whose consumer may start on partial data;
// carried edges mark dependences on the previous iteration of an
// enclosing loop (the AD → AD chain of a pipelined loop).
//
// The package provides construction, validation, topological ordering,
// and a textual encoding so the compiler driver can emit graphs that
// the runtime driver reads back.
package delirium

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// NodeKind distinguishes sequential sections from data-parallel
// operators.
type NodeKind int

// Node kinds.
const (
	Seq NodeKind = iota
	Par
	// Exp is an expandable operator: at execution time, once its
	// predecessors complete, the runtime asks the binding's expansion
	// rule for a sub-graph and splices it in — the nested-dataflow
	// extension (fork-join is the degenerate case of a one-level
	// expansion). An Exp node contributes a single join task of its
	// own, which becomes runnable only after every task of the
	// materialized sub-graph completes; its successors therefore see
	// the whole expansion as one operator.
	Exp
)

func (k NodeKind) String() string {
	switch k {
	case Seq:
		return "seq"
	case Par:
		return "par"
	case Exp:
		return "exp"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node is one computation in the dataflow graph.
type Node struct {
	Name string
	Kind NodeKind
	// Tasks is the symbolic task count of a parallel operator (a
	// variable name like "n" or a literal like "1024"), resolved
	// against runtime parameters.
	Tasks string
	// Rule names the expansion rule of an Exp node: the binding layer
	// resolves it to an executable rts.ExpandFunc the same way a node
	// name resolves to an operation. Only meaningful when Kind == Exp.
	Rule string
	// Comment carries provenance (e.g. which split part produced the
	// node).
	Comment string
}

// MaxEdgeBytes bounds an edge's Bytes annotation. Times the 2^24 tasks
// of the largest operator an engine accepts it stays inside int64, and
// at 512 GiB per task it is far beyond any volume a program annotates.
const MaxEdgeBytes = 1 << 39

// Edge is a dataflow dependence with a data-volume annotation.
type Edge struct {
	From, To string
	// Bytes is the data volume communicated along the edge (per task
	// of the consumer when PerTask, total otherwise).
	Bytes   int64
	PerTask bool
	// Pipelined marks a producer/consumer pair the runtime may
	// overlap, choosing a communication granularity.
	Pipelined bool
	// Chain marks a pipelined pair the compiler proved exactly
	// pointwise (consumer task i reads the producer only at index i),
	// so a runtime may schedule it as a cache chain: the worker
	// completing producer chunk i runs consumer chunk i immediately,
	// while the data is still cache-resident. Kernel split annotations
	// (internal/split) license the same schedule at bind time; the
	// edge attribute carries the compiler's structural proof for
	// binders without annotations.
	Chain bool
	// Carried marks a dependence on the previous iteration of the
	// enclosing loop rather than on the same activation.
	Carried bool
}

// Graph is a complete Delirium program graph.
type Graph struct {
	Name  string
	Nodes []*Node
	Edges []*Edge

	byName map[string]*Node
}

// NewGraph creates an empty graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name, byName: map[string]*Node{}}
}

// AddNode appends a node; duplicate names are an error.
func (g *Graph) AddNode(n *Node) error {
	if n.Name == "" {
		return fmt.Errorf("delirium: empty node name")
	}
	if g.byName == nil {
		g.byName = map[string]*Node{}
	}
	if g.byName[n.Name] != nil {
		return fmt.Errorf("delirium: duplicate node %q", n.Name)
	}
	g.Nodes = append(g.Nodes, n)
	g.byName[n.Name] = n
	return nil
}

// AddEdge appends an edge.
func (g *Graph) AddEdge(e *Edge) { g.Edges = append(g.Edges, e) }

// Node looks up a node by name.
func (g *Graph) Node(name string) *Node { return g.byName[name] }

// HasExpansions reports whether any node of the graph is expandable
// (Kind == Exp). Backends that cannot execute runtime expansions use
// this to refuse the graph up front rather than misexecute it.
func (g *Graph) HasExpansions() bool {
	for _, n := range g.Nodes {
		if n.Kind == Exp {
			return true
		}
	}
	return false
}

// Validate checks that every edge references declared nodes and that
// the non-carried edges form a DAG.
func (g *Graph) Validate() error {
	for _, n := range g.Nodes {
		if n.Rule != "" && n.Kind != Exp {
			return fmt.Errorf("delirium: node %q has rule=%s but kind=%s (rules belong to exp nodes)", n.Name, n.Rule, n.Kind)
		}
	}
	_, err := g.order()
	return err
}

// Preds returns the names of nodes with a non-carried edge into name.
func (g *Graph) Preds(name string) []string {
	var out []string
	for _, e := range g.Edges {
		if e.To == name && !e.Carried {
			out = append(out, e.From)
		}
	}
	return out
}

// Succs returns the names of nodes reachable by one non-carried edge.
func (g *Graph) Succs(name string) []string {
	var out []string
	for _, e := range g.Edges {
		if e.From == name && !e.Carried {
			out = append(out, e.To)
		}
	}
	return out
}

// InEdges returns the non-carried edges into name.
func (g *Graph) InEdges(name string) []*Edge {
	var out []*Edge
	for _, e := range g.Edges {
		if e.To == name && !e.Carried {
			out = append(out, e)
		}
	}
	return out
}

// TopoOrder returns the nodes in a topological order of the
// non-carried edges; it fails on cycles and on edges Validate refuses.
// Ties go to declaration order: the queue starts with the sources in
// declaration order and a node's successors join it in edge order.
func (g *Graph) TopoOrder() ([]*Node, error) {
	order, err := g.order()
	if err != nil {
		return nil, err
	}
	out := make([]*Node, len(order))
	for k, i := range order {
		out[k] = g.Nodes[i]
	}
	return out, nil
}

// order checks every edge (declared ends, no plain self edge) and
// returns TopoOrder's order as node indices, in O(V+E) over a name
// index and out-edge lists.
func (g *Graph) order() ([]int, error) {
	index := make(map[string]int, len(g.Nodes))
	for i, n := range g.Nodes {
		index[n.Name] = i
	}
	indeg := make([]int, len(g.Nodes))
	succ := make([][]int, len(g.Nodes))
	for _, e := range g.Edges {
		from, ok := index[e.From]
		if !ok {
			return nil, fmt.Errorf("delirium: edge from undeclared node %q", e.From)
		}
		to, ok := index[e.To]
		if !ok {
			return nil, fmt.Errorf("delirium: edge to undeclared node %q", e.To)
		}
		if e.Carried {
			continue
		}
		if from == to {
			return nil, fmt.Errorf("delirium: self edge on %q must be carried", e.From)
		}
		indeg[to]++
		succ[from] = append(succ[from], to)
	}
	queue := make([]int, 0, len(g.Nodes))
	for i := range g.Nodes {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, j := range succ[queue[head]] {
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(queue) != len(g.Nodes) {
		return nil, fmt.Errorf("delirium: graph has a cycle")
	}
	return queue, nil
}

// Levels groups the topological order into concurrency levels: nodes
// in the same level have no paths between them and may execute
// concurrently (the runtime allocates processors among them).
func (g *Graph) Levels() ([][]*Node, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	level := map[string]int{}
	for _, n := range order {
		l := 0
		for _, p := range g.Preds(n.Name) {
			if level[p]+1 > l {
				l = level[p] + 1
			}
		}
		level[n.Name] = l
	}
	max := 0
	for _, l := range level {
		if l > max {
			max = l
		}
	}
	out := make([][]*Node, max+1)
	for _, n := range order {
		out[level[n.Name]] = append(out[level[n.Name]], n)
	}
	return out, nil
}

// Encode renders the graph in its textual form.
func (g *Graph) Encode() string {
	var b strings.Builder
	b.Grow(32 * (1 + len(g.Nodes) + len(g.Edges)))
	b.WriteString("graph ")
	b.WriteString(g.Name)
	b.WriteByte('\n')
	for _, n := range g.Nodes {
		b.WriteString("node ")
		b.WriteString(n.Name)
		b.WriteString(" kind=")
		b.WriteString(n.Kind.String())
		if n.Tasks != "" {
			b.WriteString(" tasks=")
			b.WriteString(n.Tasks)
		}
		if n.Rule != "" {
			b.WriteString(" rule=")
			b.WriteString(n.Rule)
		}
		if n.Comment != "" {
			b.WriteString(" # ")
			b.WriteString(n.Comment)
		}
		b.WriteByte('\n')
	}
	edges := append([]*Edge{}, g.Edges...)
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	var num [20]byte
	for _, e := range edges {
		b.WriteString("edge ")
		b.WriteString(e.From)
		b.WriteString(" -> ")
		b.WriteString(e.To)
		if e.Bytes > 0 {
			b.WriteString(" bytes=")
			b.Write(strconv.AppendInt(num[:0], e.Bytes, 10))
		}
		if e.PerTask {
			b.WriteString(" pertask")
		}
		if e.Pipelined {
			b.WriteString(" pipelined")
		}
		if e.Chain {
			b.WriteString(" chain")
		}
		if e.Carried {
			b.WriteString(" carried")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Decode parses the textual form produced by Encode.
func Decode(text string) (*Graph, error) {
	var g *Graph
	for lineNo, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "graph":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: graph needs a name", lineNo+1)
			}
			if g != nil {
				return nil, fmt.Errorf("line %d: second graph header (the text declares %q already)", lineNo+1, g.Name)
			}
			g = NewGraph(fields[1])
		case "node":
			if g == nil {
				return nil, fmt.Errorf("line %d: node before graph", lineNo+1)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: node needs a name", lineNo+1)
			}
			n := &Node{Name: fields[1]}
			for _, f := range fields[2:] {
				switch {
				case f == "kind=seq":
					n.Kind = Seq
				case f == "kind=par":
					n.Kind = Par
				case f == "kind=exp":
					n.Kind = Exp
				case strings.HasPrefix(f, "tasks="):
					n.Tasks = strings.TrimPrefix(f, "tasks=")
				case strings.HasPrefix(f, "rule="):
					n.Rule = strings.TrimPrefix(f, "rule=")
				default:
					return nil, fmt.Errorf("line %d: unknown node attribute %q", lineNo+1, f)
				}
			}
			if err := g.AddNode(n); err != nil {
				return nil, err
			}
		case "edge":
			if g == nil {
				return nil, fmt.Errorf("line %d: edge before graph", lineNo+1)
			}
			if len(fields) < 4 || fields[2] != "->" {
				return nil, fmt.Errorf("line %d: malformed edge", lineNo+1)
			}
			e := &Edge{From: fields[1], To: fields[3]}
			for _, f := range fields[4:] {
				switch {
				case strings.HasPrefix(f, "bytes="):
					v, err := strconv.ParseInt(strings.TrimPrefix(f, "bytes="), 10, 64)
					if err != nil || v < 0 || v > MaxEdgeBytes {
						return nil, fmt.Errorf("line %d: bad %s: want a decimal byte count in [0, %d]", lineNo+1, f, int64(MaxEdgeBytes))
					}
					e.Bytes = v
				case f == "pertask":
					e.PerTask = true
				case f == "pipelined":
					e.Pipelined = true
				case f == "chain":
					e.Chain = true
				case f == "carried":
					e.Carried = true
				default:
					return nil, fmt.Errorf("line %d: unknown edge attribute %q", lineNo+1, f)
				}
			}
			g.AddEdge(e)
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineNo+1, fields[0])
		}
	}
	if g == nil {
		return nil, fmt.Errorf("delirium: empty input")
	}
	return g, g.Validate()
}
