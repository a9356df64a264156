package search

import (
	"strings"

	"orchestra/internal/delirium"
)

// Candidate is one point of the search space: a concrete executable
// graph plus a description of which edge attributes it keeps.
type Candidate struct {
	// ID is a stable human-readable identifier: "asis" for the graph
	// as written, or a toggle description such as
	// "asis-nopipe[update>outD]" or "asis-nochain[a>b]".
	ID    string
	Graph *delirium.Graph
	// Degree counts the pipelined and chained edges the candidate
	// keeps. Ties in the cost model break toward the LOWER degree: a
	// transformation that does not pay for itself is not applied.
	Degree int
}

// maxToggleCross bounds the per-edge toggle cross-product; above it
// the space degrades to single-edge ablations plus the all-off
// variant.
const maxToggleCross = 16

// GraphCandidates enumerates the edge-attribute weakenings of a raw
// graph: the graph as-is plus variants with pipelining/chaining
// disabled per edge. Every candidate keeps the node set and edge set
// intact — attributes are only ever turned off — so any execution
// schedule a candidate admits was already admitted by the original
// graph, and results stay bitwise identical by construction.
func GraphCandidates(base *delirium.Graph) []Candidate {
	type toggle struct {
		idx  int
		name string
		pipe bool // true: disable Pipelined (and Chain); false: disable Chain only
	}
	var toggles []toggle
	for i, e := range base.Edges {
		name := e.From + ">" + e.To
		if e.Pipelined {
			toggles = append(toggles, toggle{i, name, true})
		}
		if e.Chain {
			toggles = append(toggles, toggle{i, name, false})
		}
	}
	mk := func(off []toggle) Candidate {
		c := Candidate{ID: "asis", Graph: base}
		if len(off) > 0 {
			g := cloneGraph(base)
			var pnames, cnames []string
			for _, t := range off {
				e := g.Edges[t.idx]
				if t.pipe {
					e.Pipelined, e.Chain = false, false
					pnames = append(pnames, t.name)
				} else {
					e.Chain = false
					cnames = append(cnames, t.name)
				}
			}
			c.Graph = g
			if len(pnames) > 0 {
				c.ID += "-nopipe[" + strings.Join(pnames, ",") + "]"
			}
			if len(cnames) > 0 {
				c.ID += "-nochain[" + strings.Join(cnames, ",") + "]"
			}
		}
		c.Degree = degree(c.Graph)
		return c
	}
	if len(toggles) == 0 || 1<<len(toggles) > maxToggleCross {
		out := []Candidate{mk(nil)}
		if len(toggles) > 0 {
			for _, t := range toggles {
				out = append(out, mk([]toggle{t}))
			}
			out = append(out, mk(toggles))
		}
		return out
	}
	var out []Candidate
	for m := 0; m < 1<<len(toggles); m++ {
		var off []toggle
		for i := range toggles {
			if m&(1<<i) != 0 {
				off = append(off, toggles[i])
			}
		}
		out = append(out, mk(off))
	}
	return out
}

// degree counts the pipelined and chained edges of a graph.
func degree(g *delirium.Graph) int {
	d := 0
	for _, e := range g.Edges {
		if e.Pipelined {
			d++
		}
		if e.Chain {
			d++
		}
	}
	return d
}

// cloneGraph deep-copies a graph.
func cloneGraph(g *delirium.Graph) *delirium.Graph {
	out := delirium.NewGraph(g.Name)
	for _, nd := range g.Nodes {
		n := *nd
		if err := out.AddNode(&n); err != nil {
			panic(err) // the source graph was valid
		}
	}
	for _, e := range g.Edges {
		ne := *e
		out.AddEdge(&ne)
	}
	return out
}
