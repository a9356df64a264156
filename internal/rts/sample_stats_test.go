package rts

import (
	"math"
	"testing"

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
