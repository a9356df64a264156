package fuzz

import (
	"fmt"
	"strconv"

	"orchestra/internal/compile"
	"orchestra/internal/delirium"
	"orchestra/internal/rts"
	"orchestra/internal/stats"
	"orchestra/internal/workload"
)

// The nested rung: random recursive dataflow programs. The generator
// emits a small top-level graph whose Exp nodes carry workload's
// random rule — each expansion is itself a random graph that may
// contain further Exp nodes, bounded in depth — bound by the one nested
// binder (workload.NewNested), whose task values are pure functions of
// (operator name, task index, inputs) and whose sub-operators also
// read their Exp ancestors' inputs. The oracle is the statically
// unrolled reference: compile.Unroll flattens the same program ahead of
// time, the flat graph runs once to produce the reference digest, and
// every row of the rung (simulator and native, several processor
// counts and modes, plus a second flat run on the native backend) must
// reproduce that digest bitwise. Runtime expansion may only ever change
// the schedule; any value drift is a gating, splicing, or
// cross-level-stealing defect.
//
// Determinism across instances is by construction: the random rule
// draws an expansion from (case seed ⊕ hash(operator name)), and
// operator names are tree paths, so the runtime expansion inside an
// engine and the eager expansion inside the unroller materialize
// identical sub-graphs without sharing state.

// GenNested derives a random recursive program from seed.
func GenNested(seed uint64) *Case {
	rng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	g := delirium.NewGraph(fmt.Sprintf("nested-%d", seed))
	k := 3 + rng.Intn(3) // 3..5 top-level operators
	expAt := -1
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("t%d", i)
		if rng.Bernoulli(0.35) {
			g.AddNode(&delirium.Node{Name: name, Kind: delirium.Exp, Tasks: "1", Rule: "random"})
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
		g.Nodes[mid].Rule = "random"
	}
	for i := 1; i < k; i++ {
		workload.RandomEdge(rng, g, g.Nodes[i-1].Name, g.Nodes[i].Name)
		if j := rng.Intn(i); j < i-1 && rng.Bernoulli(0.4) {
			workload.RandomEdge(rng, g, g.Nodes[j].Name, g.Nodes[i].Name)
		}
	}
	return &Case{Seed: seed, Graph: g}
}

// nestedRun is a nested instance as the rung's loop sees it: no failure
// record and no order ledger — a wrong schedule can only show in the
// digest.
type nestedRun struct{ *workload.NestedInstance }

func (nestedRun) Failure() string      { return "" }
func (nestedRun) Violations() []string { return nil }

// nestedSubject builds the nested rung's subject: the case's graph,
// bound afresh per row with the case seed keying the random rule, with
// the digest of the statically unrolled graph (a Flat row), run on one
// simulated processor, as reference. It returns nil when the report is
// already decided.
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
			in, err := workload.NewNested(c.Graph, workload.NestedConfig{Seed: c.Seed})
			if err != nil {
				return nil, nil, err
			}
			return rts.BindClosure(in.Binder()), nestedRun{in}, nil
		},
	}
	// An unrolling that leaves expandable operators behind is no static
	// reference; a binding or unrolling that fails shows as the
	// reference row's error.
	if probe, _, err := s.bind(Config{}); err == nil {
		if fg, _, err := compile.Unroll(c.Graph, probe.Binder()); err == nil && fg.HasExpansions() {
			rep.Divs = append(rep.Divs, Divergence{Config: "unroll", Kind: "unroll-residue",
				Detail: "unrolled graph still has expandable operators"})
			return nil
		}
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
	want := ref.(nestedRun).Digest()
	s.diff = func(in instance) string {
		if got := in.(nestedRun).Digest(); got != want {
			return fmt.Sprintf("digest %s != statically-unrolled reference %s", got[:16], want[:16])
		}
		return ""
	}
	return s
}
