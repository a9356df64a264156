// Package rts implements the paper's adaptive runtime support (§4):
// finishing-time estimation for parallel operations (equation 1),
// the iterative processor-allocation algorithm that equalizes
// finishing-time estimates among concurrently executing operations
// (§4.1.2), communication-granularity selection for pipelined pairs,
// and the co-scheduled execution of multiple parallel operations on
// the simulated machine.
package rts

import (
	"math"

	"orchestra/internal/machine"
	"orchestra/internal/sched"
	"orchestra/internal/split"
)

// OpSpec describes one parallel operation to the runtime: the
// executable operation plus the information the estimator needs. Mu
// and Sigma are the sampled task-time statistics the runtime gathers
// as the operation executes; SetupBytes the data that must be
// contracted/expanded when the processor set changes; CommBytes the
// Sarkar–Hennessy style estimate of data crossing processor boundaries
// as a function of the runtime parameters N and p.
type OpSpec struct {
	Op        sched.Op
	Mu, Sigma float64
	// SetupBytes is the data volume moved when (re)distributing the
	// operation's working set over a new processor subset.
	SetupBytes int64
	// CommBytes estimates the total bytes crossing processor
	// boundaries during execution given n tasks on p processors. Nil
	// means no steady-state communication.
	CommBytes func(n, p int) int64
	// Split, when non-nil, annotates the kernel's data-access
	// decomposition (internal/split): which predecessor elements task
	// i reads and which output elements it writes. The native backend
	// combines producer and consumer annotations per dataflow edge to
	// decide cache-chain scheduling; a nil annotation means the
	// conservative AccessAll behaviour (never chained).
	Split *split.Annotation
	// Pack serializes the durable results of tasks [lo, hi) of this
	// operation into an opaque blob, and Apply installs such a blob
	// into this process's memory image. The pair is how the
	// distributed backend moves data between shared-nothing worker
	// processes: after a worker executes a segment it Packs the range,
	// the coordinator relays the blob, and every other process Applies
	// it before any dependent task runs. The blob format is private to
	// the kernel; both hooks see the same [lo, hi) task range. Nil for
	// kernels without durable data (synthetic timing kernels), whose
	// results need no transport.
	Pack func(lo, hi int) []byte
	// Apply is Pack's receiving half; see Pack.
	Apply func(lo, hi int, blob []byte)
	// Expand, when non-nil, makes the operator expandable (a
	// delirium.Exp node): once its predecessors complete, the engine
	// calls Expand to materialize a sub-graph in place of the
	// operator's body, splices the sub-graph's tasks into the running
	// schedule, and runs the operator's own Op (its join task, N ≤ 1)
	// only after every sub-graph task completes. See expand.go.
	Expand ExpandFunc
}

// SampleStats fills Mu and Sigma by sampling k task times (the
// runtime's sampling phase). It samples exactly k indices spread
// evenly across the iteration space: index ⌊j·N/k⌋ for j = 0..k-1,
// which are distinct whenever k ≤ N. (A naive floor stride N/k walks
// up to ~2k-1 indices — N=100, k=3 would sample i = 0, 33, 66, 99 —
// silently blowing a small sampling budget and skewing μ/σ toward
// whatever the tail of the iteration space holds.)
func (s *OpSpec) SampleStats(k int) {
	if k <= 0 || s.Op.N == 0 {
		return
	}
	if k > s.Op.N {
		k = s.Op.N
	}
	var mean, m2 float64
	n := 0
	for j := 0; j < k; j++ {
		t := s.Op.Time(j * s.Op.N / k)
		n++
		d := t - mean
		mean += d / float64(n)
		m2 += d * (t - mean)
	}
	s.Mu = mean
	// A single sample has no spread: clamp Sigma to 0 rather than
	// dividing by n-1 (and overwrite any stale value from an earlier
	// sampling pass). Rounding can also drive m2 fractionally negative,
	// which would surface as Sqrt(-ε) = NaN and poison every
	// finishing-time comparison downstream.
	if n > 1 && m2 > 0 {
		s.Sigma = math.Sqrt(m2 / float64(n-1))
	} else {
		s.Sigma = 0
	}
}

// sanitize replaces a non-finite or negative statistic with a safe
// fallback so NaN/Inf never propagates into estimates or allocation
// comparisons (NaN compares false with everything, which silently
// derails the iterative allocator).
func sanitize(v, fallback float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fallback
	}
	return v
}

// Estimate is the decomposition of a finishing-time estimate into the
// five terms of the paper's equation (1).
type Estimate struct {
	Setup   float64
	Compute float64
	Lag     float64
	Comm    float64
	Sched   float64
}

// Total sums the terms.
func (e Estimate) Total() float64 {
	return e.Setup + e.Compute + e.Lag + e.Comm + e.Sched
}

// EffectiveOmega resolves a TAPER confidence-width override the same
// way the executed policy does (sched.Taper.NextChunk): a positive
// omega is used as-is, anything else falls back to the paper's
// √(2·ln(p+1)). Every estimator that predicts scheduling behaviour
// must resolve ω through this function — predicting with the default
// while the executor honours an override would model a different
// scheduler than the one that runs.
func EffectiveOmega(p int, omega float64) float64 {
	if omega > 0 {
		return omega
	}
	if p < 1 {
		p = 1
	}
	return math.Sqrt(2 * math.Log(float64(p)+1))
}

// FinishEstimate implements equation (1) with the default TAPER
// confidence width; see FinishEstimateOmega.
func FinishEstimate(cfg machine.Config, spec OpSpec, p int) Estimate {
	return FinishEstimateOmega(cfg, spec, p, 0)
}

// FinishEstimateOmega implements equation (1):
//
//	finish = setup + compute + lag + comm + sched
//
// setup: the time to contract or expand the operation's data onto p
// processors. compute: N·μ/p, the expected mean share. lag: the
// expected maximum over the mean — for p partial sums of N/p tasks
// with variance σ², approximately σ·√(N/p)·√(2·ln p). comm: the
// runtime communication estimate. sched: the predicted number of
// scheduling events per processor times the per-event overhead, with
// the chunk count predicted from the TAPER recurrence under the
// effective confidence width omega (0 = the policy default).
func FinishEstimateOmega(cfg machine.Config, spec OpSpec, p int, omega float64) Estimate {
	if p < 1 {
		p = 1
	}
	spec.Mu = sanitize(spec.Mu, 0)
	spec.Sigma = sanitize(spec.Sigma, 0)
	n := spec.Op.N
	var e Estimate

	if spec.SetupBytes > 0 && p > 1 {
		e.Setup = float64(spec.SetupBytes)*cfg.ByteCost/float64(p)*math.Ceil(math.Log2(float64(p))) +
			math.Ceil(math.Log2(float64(p)))*(cfg.MsgOverhead+cfg.HopLatency)
	}

	e.Compute = float64(n) * spec.Mu / float64(p)

	if p > 1 && n > 0 {
		// With adaptive (TAPER) scheduling the residual imbalance is
		// the straggler overhang of individual tasks, not the
		// σ·√(N/p)-scaled imbalance of a static decomposition. The
		// overhang matters in proportion to the task granularity: with
		// many tasks per processor re-assignment hides it almost
		// entirely; as N/p approaches one task it converges to the
		// maximum single-task deviation σ·√(2·ln p).
		gran := float64(p) / float64(n)
		if gran > 1 {
			gran = 1
		}
		e.Lag = spec.Sigma * math.Sqrt(2*math.Log(float64(p))) * gran
	}

	if spec.CommBytes != nil && p > 1 {
		e.Comm = float64(spec.CommBytes(n, p)) / float64(p) * cfg.ByteCost
	}

	e.Sched = float64(PredictChunksOmega(n, p, cv(spec), omega)) / float64(p) * cfg.SchedOverhead
	return e
}

func cv(spec OpSpec) float64 {
	if spec.Mu <= 0 || math.IsNaN(spec.Mu) || math.IsInf(spec.Mu, 0) {
		return 0
	}
	return sanitize(spec.Sigma/spec.Mu, 0)
}

// PredictChunksOmega predicts how many chunks TAPER will schedule for
// n tasks on p processors given the coefficient of variation of task
// times, by iterating the chunk-size recurrence (§4.1.2: "we need to
// predict, at runtime, the number of chunks that will be scheduled").
// omega overrides the confidence width exactly as RunOpts.Omega
// overrides the executed policy's (0 = the policy default), so the
// prediction tracks the scheduler that actually runs during -omega
// sweeps.
func PredictChunksOmega(n, p int, cv, omega float64) int {
	if n <= 0 || p < 1 {
		return 0
	}
	cv = sanitize(cv, 0)
	omega = EffectiveOmega(p, omega)
	chunks := 0
	r := n
	for r > 0 {
		share := float64(r) / float64(p)
		disc := omega*omega*cv*cv + 4*share
		sqrtK := (-omega*cv + math.Sqrt(disc)) / 2
		k := int(sqrtK * sqrtK)
		if k < 1 {
			k = 1
		}
		// One "round": p processors each take a chunk of roughly k.
		taken := k * p
		if taken > r {
			taken = r
		}
		r -= taken
		chunks += (taken + k - 1) / k
		if chunks > 10*n { // defensive; cannot happen with k >= 1
			break
		}
	}
	return chunks
}
