package rts

import (
	"math"
	"testing"

	"orchestra/internal/machine"
	"orchestra/internal/sched"
)

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func checkEstimate(t *testing.T, label string, e Estimate) {
	t.Helper()
	for _, term := range []struct {
		name string
		v    float64
	}{
		{"setup", e.Setup}, {"compute", e.Compute}, {"lag", e.Lag},
		{"comm", e.Comm}, {"sched", e.Sched}, {"total", e.Total()},
	} {
		if !finite(term.v) {
			t.Errorf("%s: %s = %v", label, term.name, term.v)
		}
	}
}

// TestSampleStatsSingleSample is the regression for the NaN crop: one
// observed sample must leave Sigma clamped to 0, not NaN from the n-1
// division, and re-sampling must overwrite a stale Sigma.
func TestSampleStatsSingleSample(t *testing.T) {
	s := OpSpec{Op: sched.Op{N: 1, Time: func(int) float64 { return 2 }}}
	s.SampleStats(1)
	if s.Mu != 2 || s.Sigma != 0 {
		t.Fatalf("single sample: mu=%v sigma=%v, want 2, 0", s.Mu, s.Sigma)
	}
	// Stale Sigma from an earlier (spread-out) sampling pass must not
	// survive a re-sample that observes only one task.
	s2 := irregularSpec(5000, 3)
	if s2.Sigma <= 0 {
		t.Fatal("setup: irregular sigma should be positive")
	}
	s2.Op.N = 1
	s2.SampleStats(8)
	if s2.Sigma != 0 {
		t.Fatalf("re-sample with n=1 kept stale sigma %v", s2.Sigma)
	}
	// k larger than N must not manufacture samples.
	s3 := OpSpec{Op: sched.Op{N: 1, Time: func(int) float64 { return 5 }}}
	s3.SampleStats(64)
	if s3.Mu != 5 || s3.Sigma != 0 {
		t.Fatalf("k>N: mu=%v sigma=%v", s3.Mu, s3.Sigma)
	}
}

// TestEstimatorNeverEmitsNaN sweeps the estimator, chunk predictor and
// allocators across degenerate inputs — zero tasks, single samples,
// poisoned Mu/Sigma — and asserts no NaN/Inf ever escapes.
func TestEstimatorNeverEmitsNaN(t *testing.T) {
	cfg := machine.DefaultConfig(8)
	nan, inf := math.NaN(), math.Inf(1)
	muSigma := [][2]float64{
		{0, 0}, {1, 0}, {1, 0.5}, {0, 1},
		{nan, 0.5}, {1, nan}, {nan, nan},
		{inf, 1}, {1, inf}, {-1, -1},
	}
	for _, n := range []int{0, 1, 2, 100} {
		for _, p := range []int{0, 1, 2, 8} {
			for _, ms := range muSigma {
				spec := OpSpec{
					Op:         sched.Op{N: n, Time: func(int) float64 { return 1 }},
					Mu:         ms[0],
					Sigma:      ms[1],
					SetupBytes: 256,
					CommBytes:  func(n, p int) int64 { return int64(n) },
				}
				label := "estimate"
				checkEstimate(t, label, FinishEstimate(cfg, spec, p))
				if c := PredictChunks(n, p, cv(spec)); c < 0 || (n > 0 && p >= 1 && c == 0) {
					t.Errorf("PredictChunks(%d, %d, cv(%v,%v)) = %d", n, p, ms[0], ms[1], c)
				}
			}
		}
	}
	if c := PredictChunks(100, 4, nan); c <= 0 {
		t.Errorf("PredictChunks with NaN cv = %d", c)
	}

	// Poisoned specs must still yield a full, positive allocation.
	bad := OpSpec{Op: sched.Op{N: 50, Time: func(int) float64 { return 1 }}, Mu: nan, Sigma: inf}
	good := uniformSpec(100, 2)
	p1, p2 := allocatePair(cfg, bad, good, 8)
	if p1+p2 != 8 || p1 < 1 || p2 < 1 {
		t.Fatalf("Allocate with poisoned spec: %d + %d", p1, p2)
	}
	alloc := AllocateMany(cfg, []OpSpec{bad, good, uniformSpec(10, 1)}, 8, nil)
	sum := 0
	for i, a := range alloc {
		if a < 1 {
			t.Fatalf("AllocateMany gave op %d %d processors", i, a)
		}
		sum += a
	}
	if sum != 8 {
		t.Fatalf("AllocateMany distributed %d of 8 processors", sum)
	}
}
