package sched

import (
	"math"
	"testing"

	"orchestra/internal/stats"
)

// The compositions each engine made of the TAPER rule before
// Taper.NextChunk took the whole adaptive grain decision, kept here as
// reference code: TestOneChunkRule pins the one call to each of them.

// refRule is TAPER's unscaled rule as the engines called it.
func refRule(remaining, p int, ts *TaskStats) int {
	if ts == nil || ts.Global.N() < min(2*p, 32) || ts.Global.Mean() <= 0 {
		return clamp((remaining+2*p-1)/(2*p), remaining)
	}
	cv := ts.Global.StdDev() / ts.Global.Mean()
	share := float64(remaining) / float64(p)
	return clamp(TaperChunk(share, cv, TaperWidth(p)), remaining)
}

// refScale is the cost-function scaling of a chunk covering [lo, lo+k).
func refScale(useCost bool, k, lo int, ts *TaskStats) int {
	if !useCost || ts == nil {
		return k
	}
	nk := int(float64(k) * ts.CostScale(lo, lo+k))
	if nk < 1 {
		nk = 1
	}
	return nk
}

// refNative is native's runSegment: rule, then scaling, unclamped. The
// segment it cuts holds at most remaining tasks, so it runs
// min(chunk, remaining) of them.
func refNative(remaining, p, lo int, ts *TaskStats) int {
	return min(refScale(true, refRule(remaining, p, ts), lo, ts), remaining)
}

// refSim is the simulator's taperChunk and ExecuteCentral's grant:
// rule, then, where the chunk's first index is known, scaling clamped
// to [1, remaining]. The steal path passes lo = -1.
func refSim(useCost bool, remaining, p, lo int, ts *TaskStats) int {
	k := refRule(remaining, p, ts)
	if lo >= 0 {
		k = max(1, min(refScale(useCost, k, lo, ts), remaining))
	}
	return k
}

// refDist is dist's chunkSize: rule, scaling, and the floor of
// grainOverheads measured grant costs c in tasks of the measured mean;
// the grant it cuts ends at the operator's remaining work.
func refDist(remaining, p, lo int, c float64, ts *TaskStats) int {
	chunk := refRule(remaining, p, ts)
	chunk = refScale(true, chunk, lo, ts)
	if mu := ts.Global.Mean(); mu > 0 && c > 0 {
		chunk = max(chunk, int(math.Ceil(8*c/mu)))
	}
	return min(max(chunk, 1), remaining)
}

// chunkStats returns the statistics grid of TestOneChunkRule for an
// operator of n tasks: none sampled, a uniform prefix, and a skewed
// prefix (cheap first half, log-normal expensive second half).
func chunkStats(n int) map[string]*TaskStats {
	empty := NewTaskStats(n)
	uniform := NewTaskStats(n)
	for i := 0; i < 64; i++ {
		uniform.Observe(i, 1)
	}
	skewed := NewTaskStats(n)
	rng := stats.NewRNG(3)
	for i := 0; i < n; i += 7 {
		t := 0.5 + 0.1*rng.Float64()
		if i >= n/2 {
			t = rng.LogNormal(1, 0.8)
		}
		skewed.Observe(i, t)
	}
	return map[string]*TaskStats{"empty": empty, "uniform": uniform, "skewed": skewed}
}

// TestOneChunkRule: Taper.NextChunk returns, on every point of the
// grid, the chunk each engine composed from the rule, the scaling and
// dist's floor — native and the simulator at their zero or unmeasured
// per-chunk cost, dist at none measured and at a measured one.
func TestOneChunkRule(t *testing.T) {
	const n = 5000
	const measured = 2.0 // grant cost, in the unit of the task times
	floored := 0
	for name, ts := range chunkStats(n) {
		for _, p := range []int{1, 2, 3, 4, 64, 512} {
			scaled := &Taper{UseCostFunction: true}
			plain := &Taper{}
			for rem := 1; rem <= n; rem++ {
				lo := n - rem
				check := func(form string, got, want int) {
					t.Helper()
					if got != want {
						t.Fatalf("%s stats, p=%d, remaining=%d: %s form = %d, one call = %d",
							name, p, rem, form, want, got)
					}
				}
				check("native", scaled.NextChunk(rem, p, lo, 0, ts), refNative(rem, p, lo, ts))
				check("sim owner", scaled.NextChunk(rem, p, lo, 0, ts), refSim(true, rem, p, lo, ts))
				check("sim steal", scaled.NextChunk(rem, p, -1, 0, ts), refSim(true, rem, p, -1, ts))
				check("central plain", plain.NextChunk(rem, p, lo, 0, ts), refSim(false, rem, p, lo, ts))
				for _, c := range []float64{0, measured} {
					want := refDist(rem, p, lo, c, ts)
					check("dist", scaled.NextChunk(rem, p, lo, c, ts), want)
					if c > 0 && want > refDist(rem, p, lo, 0, ts) {
						floored++
					}
				}
			}
		}
	}
	if floored == 0 {
		t.Fatal("the measured grant cost never raised a chunk: the floor went untested")
	}
}
