package rts

import (
	"fmt"

	"orchestra/internal/delirium"
)

// This file defines the nested-dataflow expansion API (ROADMAP item 3;
// Dinh & Simhadri's nested dataflow model). A delirium.Exp node does
// not carry a static body: when its predecessors complete, the engine
// calls the bound OpSpec's Expand hook, which returns a sub-graph plus
// a binder for the sub-graph's operators. The engine splices the
// sub-graph into the running schedule — on the native backend the
// sub-tasks feed the same worker deques every other task uses, so
// work-stealing crosses nesting levels — and holds the Exp operator's
// own join task until every sub-graph task (including recursively
// expanded ones) has completed. Completion of the join task then
// releases the parent's successors exactly like any operator
// completion, which is what makes fork-join the degenerate case: a
// single expansion level with independent sub-operators.

// MaxExpandDepth bounds the recursion depth of runtime expansions: an
// expansion requested at depth ≥ MaxExpandDepth fails the run instead
// of diverging. Depth 0 is a top-level Exp node; each nested Exp node
// inside a materialized sub-graph adds one.
const MaxExpandDepth = 16

// Expansion is the sub-graph an expandable operator materializes at
// execution time.
type Expansion struct {
	// Graph is the sub-graph to splice in. It must validate as a
	// standalone DAG; its node names must not collide with any
	// operator already scheduled (the engines check this — kernels
	// conventionally namespace sub-operators by the parent's name or
	// by tree path).
	Graph *delirium.Graph
	// Bind resolves the sub-graph's operators, exactly like the
	// top-level binder. Sub-operators may themselves be expandable
	// (OpSpec.Expand non-nil on a Kind == Exp node), recursing up to
	// MaxExpandDepth.
	Bind Binder
}

// ExpandFunc produces an operator's expansion. depth is the nesting
// depth of the operator being expanded (0 for a top-level node).
// Returning a nil Expansion with a nil error means "no expansion":
// the operator degenerates to just its join task, which is how a
// recursive rule terminates at its base case. The hook runs after
// every predecessor of the operator has completed, so it may inspect
// data those predecessors produced — this is what lets the vortex
// workload decide spatial refinement at runtime.
type ExpandFunc func(depth int) (*Expansion, error)

// CheckGraphSupported verifies the graph's structural demands against
// a backend's capability set: a graph containing Exp nodes requires
// runtime-expansion support. Backends that cannot expand (dist) call
// this beside CheckSupported and refuse with the same structured
// *OptionError shape rather than misexecuting the graph as if the Exp
// nodes were ordinary operators.
func CheckGraphSupported(backend string, g *delirium.Graph, sup Supported) error {
	if g.HasExpansions() && !sup.Expand {
		return &OptionError{Backend: backend, Fields: []string{"Expand"}}
	}
	return nil
}

// JoinSpec normalizes an expandable operator's binding to its join
// form: exactly one task, with a zero-cost body when the binding
// supplies none. Both engines apply the same normalization, so an
// expandable operator contributes exactly one join task everywhere
// regardless of what Op.N its binding declared.
func JoinSpec(spec OpSpec) OpSpec {
	spec.Op.N = 1
	if spec.Op.Time == nil {
		spec.Op.Time = func(int) float64 { return 0 }
	}
	return spec
}

// ValidateExpansion applies the engine-independent checks both
// backends run before splicing a materialized sub-graph: the
// expansion must be a valid standalone DAG, its node names must be
// new, and the depth bound must hold. taken reports whether an
// operator name is already scheduled.
func ValidateExpansion(op string, depth int, exp *Expansion, taken func(string) bool) error {
	if depth >= MaxExpandDepth {
		return fmt.Errorf("rts: expansion of %q exceeds depth bound %d", op, MaxExpandDepth)
	}
	if exp.Graph == nil {
		return fmt.Errorf("rts: expansion of %q has no graph", op)
	}
	if err := exp.Graph.Validate(); err != nil {
		return fmt.Errorf("rts: expansion of %q: %w", op, err)
	}
	if len(exp.Graph.Nodes) == 0 {
		return fmt.Errorf("rts: expansion of %q is empty (return a nil Expansion for the base case)", op)
	}
	if exp.Bind == nil {
		return fmt.Errorf("rts: expansion of %q has no binder", op)
	}
	for _, n := range exp.Graph.Nodes {
		if taken(n.Name) {
			return fmt.Errorf("rts: expansion of %q redeclares operator %q", op, n.Name)
		}
	}
	return nil
}
