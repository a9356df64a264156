package rts

import (
	"math"
	"testing"

	"orchestra/internal/machine"
	"orchestra/internal/obs"
	"orchestra/internal/sched"
)

// TestSampleStatsExactBudget pins the sampling-budget contract: k
// samples means exactly k task evaluations (min(k, N) when the budget
// exceeds the iteration space), at distinct indices spread across the
// space. The old floor stride N/k walked up to ~2k-1 indices — N=100,
// k=3 evaluated tasks 0, 33, 66, 99 — overspending small budgets and
// biasing μ/σ toward the tail of the iteration space.
func TestSampleStatsExactBudget(t *testing.T) {
	cases := []struct {
		n, k, want int
	}{
		{100, 3, 3}, // the motivating case: floor stride sampled 4
		{100, 7, 7},
		{101, 10, 10},
		{10, 4, 4},
		{7, 7, 7},
		{7, 3, 3},
		{5, 2, 2},
		{3, 5, 3}, // budget larger than the space: every task once
		{1, 8, 1}, // single task
		{64, 64, 64},
		{65, 64, 64},
		{1 << 20, 128, 128},
	}
	for _, tc := range cases {
		seen := map[int]int{}
		s := OpSpec{Op: sched.Op{Name: "probe", N: tc.n, Time: func(i int) float64 {
			seen[i]++
			return float64(i)
		}}}
		s.SampleStats(tc.k)
		calls := 0
		for i, c := range seen {
			calls += c
			if c != 1 {
				t.Errorf("n=%d k=%d: task %d sampled %d times", tc.n, tc.k, i, c)
			}
			if i < 0 || i >= tc.n {
				t.Errorf("n=%d k=%d: sampled out-of-range index %d", tc.n, tc.k, i)
			}
		}
		if calls != tc.want {
			t.Errorf("n=%d k=%d: %d task evaluations, want exactly %d", tc.n, tc.k, calls, tc.want)
		}
		// μ must be the mean of exactly the sampled values.
		sum := 0.0
		for i := range seen {
			sum += float64(i)
		}
		if want := sum / float64(tc.want); math.Abs(s.Mu-want) > 1e-9 {
			t.Errorf("n=%d k=%d: Mu = %v, want %v", tc.n, tc.k, s.Mu, want)
		}
	}
}

// TestEffectiveOmegaMirrorsPolicy pins the estimator's ω resolution to
// the executed policy's (sched.Taper.NextChunk): positive overrides
// pass through, anything else resolves to √(2·ln(p+1)).
func TestEffectiveOmegaMirrorsPolicy(t *testing.T) {
	for _, p := range []int{1, 2, 8, 512} {
		def := math.Sqrt(2 * math.Log(float64(p)+1))
		if got := EffectiveOmega(p, 0); math.Abs(got-def) > 1e-12 {
			t.Errorf("p=%d: EffectiveOmega(0) = %v, want policy default %v", p, got, def)
		}
		if got := EffectiveOmega(p, -1); math.Abs(got-def) > 1e-12 {
			t.Errorf("p=%d: EffectiveOmega(-1) = %v, want policy default %v", p, got, def)
		}
		if got := EffectiveOmega(p, 3.5); got != 3.5 {
			t.Errorf("p=%d: EffectiveOmega(3.5) = %v", p, got)
		}
	}
	// An explicit default-valued override and the zero value agree.
	if a, b := PredictChunks(4096, 16, 1.2, 0), PredictChunks(4096, 16, 1.2, EffectiveOmega(16, 0)); a != b {
		t.Errorf("PredictChunks(ω=0) %d != explicit-default PredictChunks %d", a, b)
	}
}

// TestPredictChunksTracksOverriddenOmega is the estimator-drift
// regression test: under an -omega override the executed TAPER policy
// changes its chunk sizes, and the ω-aware prediction must track the
// executed chunk count while the stale default-ω prediction does not.
func TestPredictChunksTracksOverriddenOmega(t *testing.T) {
	spec := boundedIrregularSpec(4096, 19)
	cvm := spec.Sigma / spec.Mu
	p := 64
	const omega = 8.0 // far above the p=64 default ≈ 2.89: much smaller chunks

	cfg := machine.DefaultConfig(p)
	procs := make([]int, p)
	for i := range procs {
		procs[i] = i
	}
	actual := sched.ExecuteDistributed(cfg, spec.Op, procs,
		func() sched.Policy { return &sched.Taper{UseCostFunction: true, Omega: omega} },
		obs.OpObs{}).Chunks

	aware := PredictChunks(spec.Op.N, p, cvm, omega)
	stale := PredictChunks(spec.Op.N, p, cvm, 0)

	if stale >= aware {
		t.Fatalf("override ω=%v should predict more chunks than the default: aware %d, stale %d", omega, aware, stale)
	}
	awareErr := math.Abs(float64(aware - actual))
	staleErr := math.Abs(float64(stale - actual))
	if awareErr >= staleErr {
		t.Errorf("ω-aware prediction (%d) is no closer to the executed count (%d) than the drifted default (%d)",
			aware, actual, stale)
	}
	if r := float64(aware) / float64(actual); r < 0.5 || r > 2 {
		t.Errorf("ω-aware prediction %d vs executed %d: ratio %.2f outside [0.5, 2]", aware, actual, r)
	}

	// The drift propagated into equation (1)'s Sched term and from
	// there into allocation; the ω-aware estimate must differ.
	eAware := FinishEstimate(cfg, spec, p, omega)
	eStale := FinishEstimate(cfg, spec, p, 0)
	if eAware.Sched <= eStale.Sched {
		t.Errorf("Sched term should grow under ω=%v: aware %v, stale %v", omega, eAware.Sched, eStale.Sched)
	}
	if eAware.Compute != eStale.Compute {
		t.Errorf("ω must only affect the Sched term: compute %v vs %v", eAware.Compute, eStale.Compute)
	}
}
