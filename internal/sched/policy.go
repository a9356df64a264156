// Package sched implements the loop-scheduling (chunk-size) algorithms
// the paper's runtime builds on: static block assignment,
// self-scheduling, guided self-scheduling, factoring, and TAPER — the
// probabilistic, variance-aware rule of Lucco's PLDI '92 paper that
// this paper's runtime uses (§4.1.1), including the cost-function
// chunk scaling s = μg/μc. BlockBounds (static) and Taper.NextChunk
// (adaptive) are the one chunk rule per mode every engine asks.
package sched

import (
	"math"

	"orchestra/internal/stats"
)

// TaskStats accumulates sampled task execution times during a parallel
// operation, both globally and per region of the iteration space, so
// policies can use (μ, σ²) and the cost function can scale chunks.
type TaskStats struct {
	Global stats.Welford
	// bins partition the iteration space for the cost function.
	bins    []stats.Welford
	n       int
	binSize int
}

// NewTaskStats prepares statistics for an operation of n tasks.
func NewTaskStats(n int) *TaskStats {
	nbins := 16
	if n < nbins {
		nbins = n
	}
	if nbins < 1 {
		nbins = 1
	}
	bs := (n + nbins - 1) / nbins
	// A zero-task operation still gets a well-formed accumulator:
	// binSize 0 would divide by zero on the first (defensive or
	// erroneous) Observe call.
	if bs < 1 {
		bs = 1
	}
	return &TaskStats{bins: make([]stats.Welford, nbins), n: n, binSize: bs}
}

// Observe records the execution time of task index i.
func (ts *TaskStats) Observe(i int, t float64) {
	ts.Global.Add(t)
	b := i / ts.binSize
	if b >= len(ts.bins) {
		b = len(ts.bins) - 1
	}
	ts.bins[b].Add(t)
}

// ObserveChunk records a chunk-level timing: total execution time for
// the k tasks covering [lo, lo+k), measured as one aggregate (the form
// a wall-clock executor produces when timing individual tasks would
// cost more than the tasks themselves). The aggregate enters the
// statistics as k observations of the chunk mean (Welford.AddChunk),
// so the global mean stays exact under amortized timing; the variance
// only sees the between-chunk component, which understates per-task
// variance — executors should observe individual tasks while chunks
// are small and switch to ObserveChunk once they grow.
func (ts *TaskStats) ObserveChunk(lo, k int, total float64) {
	if k <= 0 {
		return
	}
	mean := total / float64(k)
	ts.Global.AddChunk(k, mean)
	// Credit each bin the chunk overlaps with its share of the tasks.
	// Attributing the whole chunk to one bin (say the midpoint's) makes
	// large chunks invisible to the regions they actually covered, so
	// RegionMean would report untouched bins as unsampled and cost-
	// scaled chunk sizing would keep extrapolating from stale data.
	for b := lo / ts.binSize; b < len(ts.bins); b++ {
		binLo, binHi := b*ts.binSize, (b+1)*ts.binSize
		if b == len(ts.bins)-1 {
			binHi = max(binHi, lo+k)
		}
		ov := min(lo+k, binHi) - max(lo, binLo)
		if ov <= 0 {
			break
		}
		ts.bins[b].AddChunk(ov, mean)
	}
}

// RegionMean estimates the mean task time in [lo, hi) using the cost
// function; it falls back to the global mean where bins are empty.
func (ts *TaskStats) RegionMean(lo, hi int) float64 {
	if hi <= lo {
		return ts.Global.Mean()
	}
	sum, cnt := 0.0, 0
	for b := lo / ts.binSize; b <= (hi-1)/ts.binSize && b < len(ts.bins); b++ {
		if ts.bins[b].N() > 0 {
			sum += ts.bins[b].Mean()
			cnt++
		}
	}
	if cnt == 0 {
		return ts.Global.Mean()
	}
	return sum / float64(cnt)
}

// CostScale returns the paper's chunk scaling factor s = μg/μc for a
// chunk covering [lo, hi): chunks in expensive regions shrink, chunks
// in cheap regions grow.
func (ts *TaskStats) CostScale(lo, hi int) float64 {
	mg := ts.Global.Mean()
	mc := ts.RegionMean(lo, hi)
	if mg <= 0 || mc <= 0 {
		return 1
	}
	s := mg / mc
	// Clamp to avoid wild extrapolation from tiny samples.
	if s < 0.25 {
		s = 0.25
	}
	if s > 4 {
		s = 4
	}
	return s
}

// Policy chooses the next chunk size. Policies may be stateful
// (factoring's batches); create a fresh policy per operation via a
// Factory.
type Policy interface {
	Name() string
	// NextChunk returns how many tasks the requesting processor should
	// take, given the number of unscheduled tasks remaining, the number
	// of cooperating processors p, the chunk's first task index lo (-1
	// when the caller does not know it yet) and c, the cost of one
	// scheduling event in the unit of the observed task times (the
	// SchedOverhead term of the caller's cost model). Implementations
	// must return a value in [1, remaining] when remaining > 0. Only
	// TAPER reads lo and c.
	NextChunk(remaining, p, lo int, c float64, ts *TaskStats) int
}

// Factory builds a fresh policy instance for one parallel operation.
type Factory func() Policy

// clamp bounds k to [1, remaining].
func clamp(k, remaining int) int {
	if k < 1 {
		k = 1
	}
	if k > remaining {
		k = remaining
	}
	return k
}

// SelfSched is pure self-scheduling: one task per scheduling event.
type SelfSched struct{}

// Name implements Policy.
func (SelfSched) Name() string { return "SS" }

// NextChunk implements Policy.
func (SelfSched) NextChunk(remaining, _, _ int, _ float64, _ *TaskStats) int {
	return clamp(1, remaining)
}

// GSS is guided self-scheduling (Polychronopoulos & Kuck): ⌈R/p⌉.
type GSS struct{}

// Name implements Policy.
func (GSS) Name() string { return "GSS" }

// NextChunk implements Policy.
func (GSS) NextChunk(remaining, p, _ int, _ float64, _ *TaskStats) int {
	return clamp((remaining+p-1)/p, remaining)
}

// Factoring is the Hummel/Schonberg/Flynn algorithm: work is scheduled
// in batches; within a batch every chunk has size ⌈R/(2p)⌉.
type Factoring struct {
	batchLeft int
	chunk     int
}

// Name implements Policy.
func (*Factoring) Name() string { return "factoring" }

// NextChunk implements Policy.
func (f *Factoring) NextChunk(remaining, p, _ int, _ float64, _ *TaskStats) int {
	if f.batchLeft == 0 {
		f.chunk = clamp((remaining+2*p-1)/(2*p), remaining)
		f.batchLeft = p
	}
	f.batchLeft--
	return clamp(f.chunk, remaining)
}

// Taper is the TAPER chunk-size rule: choose the largest chunk k whose
// upper-confidence completion time does not exceed an equal share of
// the remaining work,
//
//	k·μ + ω·σ·√k = (R/p)·μ,
//
// solved for k by TaperChunk. With σ = 0 this reduces to GSS's R/p; as
// the sampled variance grows, chunks shrink, trading scheduling
// overhead for balance. ω is TaperWidth(p) (the paper's runtime
// samples task times to compute μ and σ²; ω ≈ √(2·ln p) bounds the
// probability that any of ~p outstanding chunks straggles). Until
// min(2p, 32) times have been sampled the policy behaves like
// factoring's first batch.
//
// NextChunk is the whole adaptive grain decision of every engine: the
// rule above, the cost-function scaling, the floor that amortises a
// scheduling event, and the clamp to the work left.
type Taper struct {
	// UseCostFunction enables the s = μg/μc chunk scaling of a chunk
	// whose first index the caller passes.
	UseCostFunction bool
	// memoP and memoWidth cache TaperWidth(p) for the last p seen.
	memoP     int
	memoWidth float64
}

// grainOverheads is TAPER's floor: no chunk is smaller than the task
// count whose mean execution time is this many scheduling events, so a
// chunk is split off only where the balance it buys beats the measured
// cost of dispatching it.
const grainOverheads = 8

// TaperWidth is TAPER's confidence width on p processors,
// ω = √(2·ln(p+1)) (§4.1.2): the one definition the executed policy
// and the estimator that predicts it (rts.PredictChunks) share.
func TaperWidth(p int) float64 { return math.Sqrt(2 * math.Log(float64(p)+1)) }

// TaperChunk solves k·μ + ω·σ·√k = share·μ for k, with cv = σ/μ and
// w = ω = TaperWidth(p):
//
//	√k = (-ω·cv + √(ω²·cv² + 4·share)) / 2
//
// The result is not clamped; callers bound it to the work they have.
func TaperChunk(share, cv, w float64) int {
	disc := w*w*cv*cv + 4*share
	sqrtK := (-w*cv + math.Sqrt(disc)) / 2
	return int(sqrtK * sqrtK)
}

// Name implements Policy.
func (t *Taper) Name() string { return "TAPER" }

// NextChunk implements Policy. The chunk is, in order: the first-batch
// rule or the variance rule; scaled by s = μg/μc over [lo, lo+k) when
// UseCostFunction is set and lo ≥ 0; raised to the floor
// ⌈grainOverheads·c/μ⌉ when c and the sampled mean μ are positive; and
// clamped to [1, remaining].
func (t *Taper) NextChunk(remaining, p, lo int, c float64, ts *TaskStats) int {
	k := t.rule(remaining, p, ts)
	if ts == nil {
		return k
	}
	if t.UseCostFunction && lo >= 0 {
		k = int(float64(k) * ts.CostScale(lo, lo+k))
	}
	if mu := ts.Global.Mean(); c > 0 && mu > 0 {
		k = max(k, int(min(math.Ceil(grainOverheads*c/mu), float64(remaining))))
	}
	return clamp(k, remaining)
}

// rule is TAPER's unscaled chunk: factoring's first batch until enough
// times are sampled, then the variance rule.
func (t *Taper) rule(remaining, p int, ts *TaskStats) int {
	if ts == nil || ts.Global.N() < min(2*p, 32) || ts.Global.Mean() <= 0 {
		return clamp((remaining+2*p-1)/(2*p), remaining)
	}
	if t.memoP != p {
		t.memoP, t.memoWidth = p, TaperWidth(p)
	}
	cv := ts.Global.StdDev() / ts.Global.Mean()
	share := float64(remaining) / float64(p)
	return clamp(TaperChunk(share, cv, t.memoWidth), remaining)
}
