package compile

import (
	"fmt"

	"orchestra/internal/delirium"
	"orchestra/internal/rts"
)

// This file is the compiler's side of nested dataflow: static
// unrolling. A graph whose Exp nodes carry data-independent expansion
// rules can be expanded ahead of time into the flat graph the runtime
// would have materialized piecewise — every Exp node is replaced by
// its (recursively unrolled) sub-graph followed by the node itself as
// a one-task join. The unrolled graph admits only schedules the nested
// graph also admits, so a run of the flat graph is the reference a
// nested run must match bitwise: workload.TestNestedDCDigestParity and
// the fuzzer's nested rung both check against it.
//
// Unrolling calls each ExpandFunc eagerly, before any operator has
// executed. Rules that inspect predecessor data at runtime (adaptive
// refinement) are therefore outside its contract; callers that need a
// flat reference for such a workload must construct it from the
// workload's own parameters.

// flatExp records how an expanded operator was flattened: the names of
// its sub-graph's sources and sinks (empty for a base-case expansion),
// used to rewire the parent graph's edges around the splice.
type flatExp struct {
	base    bool
	sources []string
	sinks   []string
}

type unroller struct {
	out   *delirium.Graph
	specs map[string]rts.OpSpec
	exp   map[string]*flatExp
}

// Unroll statically expands every Exp node of g, recursively, and
// returns the flat graph plus a binder for it. The returned binder
// resolves sub-operators through the binders their expansions
// supplied, and resolves each expanded operator itself to its join
// form (rts.JoinSpec) with the Expand rule stripped — the flat graph
// has no expandable nodes left. The same depth bound the runtimes
// enforce (rts.MaxExpandDepth) applies.
func Unroll(g *delirium.Graph, bind rts.Binder) (*delirium.Graph, rts.Binder, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	u := &unroller{
		out:   delirium.NewGraph(g.Name),
		specs: map[string]rts.OpSpec{},
		exp:   map[string]*flatExp{},
	}
	if err := u.flatten(g, bind, 0); err != nil {
		return nil, nil, err
	}
	if err := u.out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("compile: unrolled graph invalid: %w", err)
	}
	specs := u.specs
	return u.out, func(name string) rts.OpSpec { return specs[name] }, nil
}

// flatten adds g2's operators (recursing into expansions) and then
// g2's edges, rewired around the splices, to the output graph.
func (u *unroller) flatten(g2 *delirium.Graph, bind2 rts.Binder, depth int) error {
	order, err := g2.TopoOrder()
	if err != nil {
		return err
	}
	for _, nd := range order {
		spec := bind2(nd.Name)
		if nd.Kind == delirium.Exp && spec.Expand == nil {
			return fmt.Errorf("compile: operator %s is expandable (kind=exp) but its binding has no Expand rule", nd.Name)
		}
		if nd.Kind != delirium.Exp && spec.Expand != nil {
			return fmt.Errorf("compile: binding provides an Expand rule for non-expandable operator %s (kind=%s)", nd.Name, nd.Kind)
		}
		if spec.Expand == nil {
			if err := u.out.AddNode(&delirium.Node{Name: nd.Name, Kind: nd.Kind, Tasks: nd.Tasks, Comment: nd.Comment}); err != nil {
				return err
			}
			u.specs[nd.Name] = spec
			continue
		}
		exp, err := spec.Expand(depth)
		if err != nil {
			return fmt.Errorf("compile: expanding %s: %w", nd.Name, err)
		}
		fe := &flatExp{base: exp == nil}
		if exp != nil {
			if err := rts.ValidateExpansion(nd.Name, depth, exp, func(nm string) bool {
				return u.out.Node(nm) != nil || g2.Node(nm) != nil
			}); err != nil {
				return err
			}
			if err := u.flatten(exp.Graph, exp.Bind, depth+1); err != nil {
				return err
			}
			fe.sources, fe.sinks = boundary(exp.Graph)
		}
		// The operator itself survives as its one-task join, gated on
		// the sub-graph's sinks.
		if err := u.out.AddNode(&delirium.Node{Name: nd.Name, Kind: delirium.Par, Tasks: "1", Comment: nd.Comment}); err != nil {
			return err
		}
		join := rts.JoinSpec(spec)
		join.Expand = nil
		u.specs[nd.Name] = join
		u.exp[nd.Name] = fe
		for _, t := range fe.sinks {
			u.out.AddEdge(&delirium.Edge{From: t, To: nd.Name})
		}
	}
	for _, e := range g2.Edges {
		if e.Carried {
			// A carried self-loop is an annotation on the operator, not
			// a dependence to rewire; an expanded operator's join has no
			// iteration space left to carry it.
			if u.exp[e.From] == nil {
				u.out.AddEdge(&delirium.Edge{From: e.From, To: e.To, Carried: true})
			}
			continue
		}
		// The runtime barrier-converts every edge adjacent to an
		// expandable endpoint; the flat graph encodes the same gating.
		pip := e.Pipelined && u.exp[e.From] == nil && u.exp[e.To] == nil
		for _, t := range u.anchors(e.To) {
			u.out.AddEdge(&delirium.Edge{
				From: e.From, To: t,
				Bytes: e.Bytes, PerTask: e.PerTask,
				Pipelined: pip, Chain: e.Chain && pip,
			})
		}
	}
	return nil
}

// anchors resolves the flat consumers of an edge into name: the node
// itself for ordinary operators and base-case expansions (the join is
// all that remains), or — for a materialized expansion — the sub-
// graph's sources, recursively, since the runtime releases those when
// the operator's predecessors complete. The join needs no direct edge:
// it is ordered behind the predecessors transitively through the
// sub-graph.
func (u *unroller) anchors(name string) []string {
	fe := u.exp[name]
	if fe == nil || fe.base {
		return []string{name}
	}
	var out []string
	for _, s := range fe.sources {
		out = append(out, u.anchors(s)...)
	}
	return out
}

// boundary returns a graph's sources (no non-carried in-edges) and
// sinks (no non-carried out-edges), in declaration order.
func boundary(g *delirium.Graph) (sources, sinks []string) {
	hasIn := map[string]bool{}
	hasOut := map[string]bool{}
	for _, e := range g.Edges {
		if e.Carried {
			continue
		}
		hasOut[e.From] = true
		hasIn[e.To] = true
	}
	for _, n := range g.Nodes {
		if !hasIn[n.Name] {
			sources = append(sources, n.Name)
		}
		if !hasOut[n.Name] {
			sinks = append(sinks, n.Name)
		}
	}
	return sources, sinks
}
