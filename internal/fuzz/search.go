package fuzz

import (
	"fmt"

	"orchestra/internal/obs"
	"orchestra/internal/rts"
	"orchestra/internal/search"
)

// The search rung: profile the lowered graph, let the profile-guided
// search (internal/search) weaken its per-edge pipelining/chaining, and
// run the emitted graph in place of the lowered one.
//
// The search's graph space only ever turns edge attributes off, never
// drops an edge or node, so every schedule a searched graph admits was
// already admitted by the original graph: searched programs must stay
// bitwise-conformant by construction, and any divergence here is a
// real bug — a search emitting a graph that lost a dependence, or a
// runtime mishandling the weakened graph. The order ledger keeps
// checking the ORIGINAL graph's gating for the same reason.

// search swaps the subject's graph for the searched one and reports
// whether there is anything left to check.
func (s *subject) search(rep *Report) bool {
	// The profiling run is a row like any other: the simulator in split
	// mode, with an event sink. Its final state must itself conform — a
	// profile of a wrong run would search a lie.
	profile := Config{
		Name:     "search/profile",
		Backend:  sim(8),
		Opts:     rts.RunOpts{Processors: 8, Mode: rts.ModeSplit},
		CheckSim: true,
	}
	var col obs.Collector
	if _, ok := s.check(profile, rep, &col); !ok {
		return false
	}
	prof, err := search.FromTrace(col.Trace, 0)
	if err != nil {
		rep.Skip = fmt.Sprintf("search profile: %v", err)
		return false
	}
	plan, err := search.Run(prof, search.GraphCandidates(s.graph), search.Options{P: 8})
	if err != nil {
		rep.Divs = append(rep.Divs, Divergence{Config: "search", Kind: "search-error", Detail: err.Error()})
		return false
	}
	s.graph = plan.Best.Graph
	lowered := s.diff
	s.diff = func(in instance) string {
		d := lowered(in)
		if d != "" {
			d = fmt.Sprintf("plan %q: %s", plan.Best.ID, d)
		}
		return d
	}
	return true
}
