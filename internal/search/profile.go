// Package search implements profile-guided split search: given the
// obs trace of a profiling run of a split graph, it enumerates the
// graph's edge-attribute weakenings — per-edge pipelining and chaining
// on/off, the node and edge sets untouched — ranks them with the
// paper's finishing-time estimate (equation 1) calibrated by the
// measured statistics, validates the finalists against a simulator
// dry-run, and emits only the profitable subset of the attributes as a
// concrete delirium.Graph.
//
// The paper applies the split transformation wholesale; the hotpath
// benchmark showed why that is wrong (TAPER+split ≈1.7× slower than
// plain TAPER on one-worker psirrfan). Bone, Somogyi & Schachte's
// feedback-directed automatic parallelization closes the same loop —
// measured profiles plus a cost model decide which parallelizations
// pay for themselves — and this package is that loop for the split
// graph's pipelined and chained edges: profile once, search, re-run
// the searched program. Keeping whole phases unsplit on one worker is
// workload.GraphFor's rule, not the search's.
package search

import (
	"fmt"
	"math"

	"orchestra/internal/obs"
)

// OpProfile is one operator's measured behaviour in the profiling run.
type OpProfile struct {
	Name string `json:"name"`
	// Tasks is the number of tasks the operator executed.
	Tasks int `json:"tasks"`
	// Chunks is how many scheduler chunks the tasks arrived in.
	Chunks int `json:"chunks"`
	// Busy is the summed span of the operator's chunks (profile time
	// units).
	Busy float64 `json:"busy"`
	// Mu and Sigma are the measured per-task statistics: the TAPER
	// policy's final online estimate when the trace carries one, else
	// the chunk-level mean (with σ estimated across chunk means).
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
}

// Profile summarizes a profiling run for the search: per-operator
// measured statistics plus run-level calibration terms.
type Profile struct {
	Ops map[string]*OpProfile `json:"ops"`
	// Processors, Makespan and Unit describe the profiling run itself.
	Processors int     `json:"processors"`
	Makespan   float64 `json:"makespan"`
	Unit       string  `json:"unit"`
	// Omega is the TAPER confidence-width override the profiling run
	// executed under (0 = policy default); the search estimates with
	// the same effective ω so it models the scheduler that will run.
	Omega float64 `json:"omega"`
	// ChunkOverhead is the run's measured per-chunk scheduling cost:
	// (p·makespan − Σ busy) / chunks. It folds chunk dispatch, gate
	// bookkeeping and residual idle together — a deliberately
	// pessimistic per-chunk price that makes transformations with no
	// overlap to win (one worker, say) rank below keep-sequential.
	ChunkOverhead float64 `json:"chunk_overhead"`
	// Chunks and Batches are run totals.
	Chunks  int `json:"chunks"`
	Batches int `json:"batches"`
}

// FromTrace distills a profiling run's trace into a Profile. omega is
// the RunOpts.Omega the run executed under.
func FromTrace(tr *obs.Trace, omega float64) (*Profile, error) {
	if tr == nil {
		return nil, fmt.Errorf("search: nil profiling trace")
	}
	p := &Profile{
		Ops:        map[string]*OpProfile{},
		Processors: tr.Result.Processors,
		Makespan:   tr.Result.Makespan,
		Unit:       tr.Unit,
		Omega:      omega,
		Chunks:     tr.Result.Chunks,
		Batches:    tr.Result.Messages,
	}
	type acc struct {
		tasks, chunks int
		busy          float64
		// chunk-mean dispersion fallback for σ
		mean, m2 float64
		nMeans   int
		// latest TAPER online estimate and its sample count
		taperN              int
		taperMu, taperSigma float64
	}
	accs := map[string]*acc{}
	var names []string // first-seen order: the busy sum below is order-sensitive
	get := func(op int32) *acc {
		name := tr.OpName(op)
		a := accs[name]
		if a == nil {
			a = &acc{}
			accs[name] = a
			names = append(names, name)
		}
		return a
	}
	for _, ev := range tr.Events {
		switch ev.Kind {
		case obs.KindChunk:
			a := get(ev.Op)
			k := int(ev.N)
			a.tasks += k
			a.chunks++
			a.busy += ev.T1 - ev.T0
			if k > 0 {
				m := (ev.T1 - ev.T0) / float64(k)
				a.nMeans++
				d := m - a.mean
				a.mean += d / float64(a.nMeans)
				a.m2 += d * (m - a.mean)
			}
		case obs.KindTaper:
			a := get(ev.Op)
			if int(ev.Arg) >= a.taperN {
				a.taperN = int(ev.Arg)
				a.taperMu, a.taperSigma = ev.V0, ev.V1
			}
		}
	}
	totalBusy := 0.0
	for _, name := range names {
		a := accs[name]
		if a.tasks == 0 {
			continue
		}
		op := &OpProfile{Name: name, Tasks: a.tasks, Chunks: a.chunks, Busy: a.busy}
		op.Mu = a.busy / float64(a.tasks)
		if a.nMeans > 1 && a.m2 > 0 {
			op.Sigma = math.Sqrt(a.m2 / float64(a.nMeans-1))
		}
		// The TAPER policy's online Welford estimate has per-task
		// resolution (chunk means wash variance out); prefer it once it
		// has a usable sample count.
		if a.taperN >= 8 && a.taperMu > 0 {
			op.Mu, op.Sigma = a.taperMu, a.taperSigma
		}
		p.Ops[name] = op
		totalBusy += a.busy
	}
	if len(p.Ops) == 0 {
		return nil, fmt.Errorf("search: profiling trace has no chunk events")
	}
	if p.Processors > 0 && p.Chunks > 0 {
		over := (float64(p.Processors)*p.Makespan - totalBusy) / float64(p.Chunks)
		if over > 0 {
			p.ChunkOverhead = over
		}
	}
	return p, nil
}

// Op returns the profile for an operator, or nil.
func (p *Profile) Op(name string) *OpProfile {
	return p.Ops[name]
}
