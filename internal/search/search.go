package search

import (
	"fmt"
	"sort"
)

// epsilon is the adoption margin: a transformation is applied only
// when it improves the validated makespan by more than this fraction
// over a less-transformed alternative. The margin is the "profitable
// subset" rule — near-ties go to the simpler program, which is how
// one-worker runs end up un-pipelined (nothing overlaps, so delivery
// bookkeeping buys nothing measurable).
const epsilon = 0.03

// topK is how many model-ranked finalists get validated; the least-
// and most-transformed candidates are always validated as controls.
const topK = 8

// Options parameterizes a search.
type Options struct {
	// P is the worker count being planned for (default: the profiling
	// run's).
	P int
	// Omega is the planned run's TAPER override (default: the
	// profile's).
	Omega float64
}

// Score is one candidate's outcome.
type Score struct {
	ID     string  `json:"id"`
	Degree int     `json:"degree"`
	Model  float64 `json:"model"`
	// Validated is the dry-run makespan; 0 when the candidate was not
	// a finalist.
	Validated float64 `json:"validated,omitempty"`
	Chosen    bool    `json:"chosen,omitempty"`
}

// Plan is the search result: the emitted graph plus the evidence that
// chose it.
type Plan struct {
	Best   Candidate
	Scores []Score // model-ranked order
}

// Run searches the candidate space against a profile: rank every
// candidate with the calibrated finishing-time model, validate the
// finalists by simulator dry-run, and pick the least-transformed
// candidate within epsilon of the best validated makespan.
func Run(prof *Profile, cands []Candidate, opt Options) (*Plan, error) {
	if prof == nil {
		return nil, fmt.Errorf("search: nil profile")
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("search: empty candidate space")
	}
	m := &Model{Prof: prof, P: opt.P, Omega: opt.Omega}

	// Model pass over the full space.
	type scored struct {
		c   Candidate
		est float64
	}
	var ok []scored
	for _, c := range cands {
		est, err := m.Estimate(c.Graph)
		if err != nil {
			continue
		}
		ok = append(ok, scored{c, est})
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("search: no candidate is covered by the profile")
	}
	cs := make([]Candidate, len(ok))
	est := make([]float64, len(ok))
	for i, s := range ok {
		cs[i], est[i] = s.c, s.est
	}
	order := rank(cs, est)

	// Finalists: the model's top K plus the least- and
	// most-transformed candidates as controls.
	finalist := map[int]bool{}
	for i := 0; i < len(order) && i < topK; i++ {
		finalist[order[i]] = true
	}
	lo, hi := 0, 0
	for i := range cs {
		if cs[i].Degree < cs[lo].Degree || (cs[i].Degree == cs[lo].Degree && cs[i].ID < cs[lo].ID) {
			lo = i
		}
		if cs[i].Degree > cs[hi].Degree || (cs[i].Degree == cs[hi].Degree && cs[i].ID < cs[hi].ID) {
			hi = i
		}
	}
	finalist[lo], finalist[hi] = true, true

	val := make([]float64, len(cs))
	for i := range cs {
		if !finalist[i] {
			continue
		}
		v, err := m.DryRun(cs[i].Graph)
		if err != nil || v <= 0 {
			finalist[i] = false
			continue
		}
		val[i] = v
	}

	// Adoption: the least-transformed finalist within epsilon of the
	// best validated makespan.
	bestVal := 0.0
	for i := range cs {
		if finalist[i] && (bestVal == 0 || val[i] < bestVal) {
			bestVal = val[i]
		}
	}
	if bestVal == 0 {
		return nil, fmt.Errorf("search: every finalist failed validation")
	}
	var fin []int
	for i := range cs {
		if finalist[i] {
			fin = append(fin, i)
		}
	}
	sort.Slice(fin, func(a, b int) bool {
		i, j := fin[a], fin[b]
		if cs[i].Degree != cs[j].Degree {
			return cs[i].Degree < cs[j].Degree
		}
		if val[i] != val[j] {
			return val[i] < val[j]
		}
		return cs[i].ID < cs[j].ID
	})
	chosen := fin[0]
	for _, i := range fin {
		if val[i] <= bestVal*(1+epsilon) {
			chosen = i
			break
		}
	}

	plan := &Plan{Best: cs[chosen]}
	for _, i := range order {
		plan.Scores = append(plan.Scores, Score{
			ID: cs[i].ID, Degree: cs[i].Degree, Model: est[i],
			Validated: val[i], Chosen: i == chosen,
		})
	}
	return plan, nil
}
