package rts

import (
	"math"
	"testing"

	"orchestra/internal/machine"
	"orchestra/internal/sched"
	"orchestra/internal/stats"
)

func uniformSpec(n int, t float64) OpSpec {
	s := OpSpec{Op: sched.Op{Name: "u", N: n, Time: func(int) float64 { return t }, Bytes: 64}}
	s.SampleStats(64)
	return s
}

// boundedIrregularSpec is the steady-state regime of the paper's
// applications: bimodal bounded task times with warm cost hints.
func boundedIrregularSpec(n int, seed uint64) OpSpec {
	rng := stats.NewRNG(seed)
	times := make([]float64, n)
	for i := range times {
		if rng.Bernoulli(0.3) {
			times[i] = rng.Uniform(8, 16)
		} else {
			times[i] = 0.8
		}
	}
	t := times
	s := OpSpec{Op: sched.Op{
		Name: "birr", N: n, Bytes: 64,
		Time: func(i int) float64 { return t[i] },
		Hint: func(i int) float64 { return t[i] },
	}}
	s.SampleStats(128)
	return s
}

func irregularSpec(n int, seed uint64) OpSpec {
	rng := stats.NewRNG(seed)
	d := stats.Bimodal{PA: 0.75, A: stats.Constant{V: 1}, B: stats.LogNormalDist{Mu: 2.2, Sigma: 0.9}}
	times := make([]float64, n)
	for i := range times {
		times[i] = d.Sample(rng)
	}
	s := OpSpec{Op: sched.Op{Name: "irr", N: n, Time: func(i int) float64 { return times[i] }, Bytes: 64}}
	s.SampleStats(128)
	return s
}

func TestSampleStats(t *testing.T) {
	s := uniformSpec(1000, 3.0)
	if math.Abs(s.Mu-3) > 1e-9 || s.Sigma > 1e-9 {
		t.Fatalf("mu=%v sigma=%v", s.Mu, s.Sigma)
	}
	ir := irregularSpec(5000, 1)
	if ir.Sigma <= 0 {
		t.Fatal("irregular sigma should be positive")
	}
}

func TestFinishEstimateTerms(t *testing.T) {
	cfg := machine.DefaultConfig(64)
	s := irregularSpec(4096, 2)
	s.SetupBytes = 1 << 20
	s.CommBytes = func(n, p int) int64 { return int64(n) * 8 }

	e := FinishEstimate(cfg, s, 64)
	if e.Setup <= 0 || e.Compute <= 0 || e.Lag <= 0 || e.Comm <= 0 || e.Sched <= 0 {
		t.Fatalf("all terms should be positive: %+v", e)
	}
	if e.Total() != e.Setup+e.Compute+e.Lag+e.Comm+e.Sched {
		t.Fatal("Total mismatch")
	}
	// One processor: no setup, no lag, no comm.
	e1 := FinishEstimate(cfg, s, 1)
	if e1.Setup != 0 || e1.Lag != 0 || e1.Comm != 0 {
		t.Fatalf("single-processor overheads: %+v", e1)
	}
	// Compute scales as 1/p.
	if math.Abs(e1.Compute/64-e.Compute) > 1e-9 {
		t.Fatalf("compute not 1/p: %v vs %v", e1.Compute, e.Compute)
	}
}

func TestFinishEstimateMonotonicity(t *testing.T) {
	cfg := machine.DefaultConfig(1024)
	s := irregularSpec(4096, 3)
	prev := math.Inf(1)
	// Compute term decreases with p; eventually lag/sched make more
	// processors useless, so total is not monotone. But up to modest p,
	// total should decrease.
	for _, p := range []int{1, 2, 4, 8, 16} {
		tot := FinishEstimate(cfg, s, p).Total()
		if tot >= prev {
			t.Fatalf("estimate not improving at p=%d: %v >= %v", p, tot, prev)
		}
		prev = tot
	}
}

func TestPredictChunks(t *testing.T) {
	// Zero variance: behaves like GSS; chunk count ~ p·log(N/p).
	c := PredictChunks(1024, 8, 0)
	if c < 8 || c > 200 {
		t.Fatalf("chunks = %d", c)
	}
	// Variance increases the chunk count.
	cv := PredictChunks(1024, 8, 2.0)
	if cv <= c {
		t.Fatalf("variance should add chunks: %d <= %d", cv, c)
	}
	if PredictChunks(0, 8, 1) != 0 {
		t.Fatal("no tasks, no chunks")
	}
}

func TestAllocateEqualOps(t *testing.T) {
	est := func(p int) float64 { return 1000 / float64(p) }
	p1, p2 := Allocate(est, est, 64, DefaultMaxCount, DefaultEpsilon)
	if p1+p2 != 64 {
		t.Fatalf("p1+p2 = %d", p1+p2)
	}
	if p1 != 32 || p2 != 32 {
		t.Fatalf("equal ops should split evenly: %d/%d", p1, p2)
	}
}

func TestAllocateUnequalOps(t *testing.T) {
	// A has 3x the work of B: A should get roughly 3/4 of processors.
	estA := func(p int) float64 { return 3000 / float64(p) }
	estB := func(p int) float64 { return 1000 / float64(p) }
	p1, p2 := Allocate(estA, estB, 64, DefaultMaxCount, DefaultEpsilon)
	if p1+p2 != 64 {
		t.Fatalf("p1+p2 = %d", p1+p2)
	}
	if p1 < 40 || p1 > 56 {
		t.Fatalf("A should get ~48 processors, got %d", p1)
	}
	eA, eB := estA(p1), estB(p2)
	if imbalance(eA, eB) > 0.25 {
		t.Fatalf("finishing times not equalized: %v vs %v", eA, eB)
	}
}

func TestAllocateRespectsMaxCount(t *testing.T) {
	calls := 0
	est := func(p int) float64 { calls++; return 1000 / float64(p) }
	estB := func(p int) float64 { calls++; return 50000 / float64(p) }
	Allocate(est, estB, 128, 4, 0.001)
	// 2 initial + 2 per iteration, max 4 iterations.
	if calls > 10 {
		t.Fatalf("estimator called %d times", calls)
	}
}

func TestAllocateEdgeCases(t *testing.T) {
	est := func(p int) float64 { return 1 / float64(p) }
	p1, p2 := Allocate(est, est, 1, 4, 0.05)
	if p1 != 1 || p2 != 0 {
		t.Fatalf("p=1: %d/%d", p1, p2)
	}
	p1, p2 = Allocate(est, est, 2, 4, 0.05)
	if p1 != 1 || p2 != 1 {
		t.Fatalf("p=2: %d/%d", p1, p2)
	}
	// Both sides keep at least one processor even with extreme skew.
	estHuge := func(p int) float64 { return 1e9 / float64(p) }
	estTiny := func(p int) float64 { return 1.0 }
	p1, p2 = Allocate(estHuge, estTiny, 64, 10, 0.001)
	if p1 < 1 || p2 < 1 || p1+p2 != 64 {
		t.Fatalf("extreme skew: %d/%d", p1, p2)
	}
}

// allocatePair allocates p processors between two specs with the
// finishing-time estimate as Allocate's estimator.
func allocatePair(cfg machine.Config, a, b OpSpec, p int) (p1, p2 int) {
	return Allocate(
		func(q int) float64 { return FinishEstimate(cfg, a, q).Total() },
		func(q int) float64 { return FinishEstimate(cfg, b, q).Total() },
		p, DefaultMaxCount, DefaultEpsilon)
}

func TestAllocateSpecs(t *testing.T) {
	cfg := machine.DefaultConfig(128)
	a := irregularSpec(4096, 5)
	b := uniformSpec(1024, 1)
	p1, p2 := allocatePair(cfg, a, b, 128)
	if p1+p2 != 128 || p1 < 1 || p2 < 1 {
		t.Fatalf("alloc = %d/%d", p1, p2)
	}
	// The op with more total work gets more processors.
	if a.Mu*float64(a.Op.N) > b.Mu*float64(b.Op.N) && p1 <= p2 {
		t.Fatalf("allocation ignores work: %d/%d", p1, p2)
	}
}

func TestAllocateMany(t *testing.T) {
	cfg := machine.DefaultConfig(256)
	specs := []OpSpec{
		uniformSpec(4096, 2),
		uniformSpec(1024, 1),
		irregularSpec(2048, 7),
	}
	alloc := AllocateMany(cfg, specs, 256, nil)
	total := 0
	for i, a := range alloc {
		if a < 1 {
			t.Fatalf("op %d starved: %v", i, alloc)
		}
		total += a
	}
	if total != 256 {
		t.Fatalf("allocated %d processors, want 256", total)
	}
	// Largest-work op gets the most.
	if alloc[0] <= alloc[1] {
		t.Fatalf("allocation not proportional: %v", alloc)
	}
	if len(AllocateMany(cfg, specs[:1], 64, nil)) != 1 {
		t.Fatal("single op allocation")
	}
}

func TestChooseGranularity(t *testing.T) {
	cfg := machine.DefaultConfig(64)
	m := ChooseGranularity(cfg, 4096, 64)
	if m < 1 || m > 4096 {
		t.Fatalf("m = %d", m)
	}
	// Larger items → smaller batches.
	mBig := ChooseGranularity(cfg, 4096, 64*1024)
	if mBig >= m {
		t.Fatalf("large items should shrink batches: %d >= %d", mBig, m)
	}
	// The chosen granularity should be near the cost minimum.
	best := PipeBatchCost(cfg, 4096, 64, m)
	for _, other := range []int{1, 8, 64, 512, 4096} {
		c := PipeBatchCost(cfg, 4096, 64, other)
		if c < best*0.9 {
			t.Fatalf("m=%d (cost %v) badly beaten by m=%d (cost %v)", m, best, other, c)
		}
	}
	if ChooseGranularity(cfg, 1, 64) != 1 {
		t.Fatal("n=1 granularity")
	}
}

func TestFinishEstimateTracksReality(t *testing.T) {
	// Equation (1) is used to RANK allocations, so it must track the
	// simulator within a modest factor across operation shapes and
	// machine sizes.
	// Bounded irregular op with warm hints: the estimator's operating
	// regime (iterative applications with learned cost functions).
	// Unbounded heavy tails are straggler-bound in ways equation (1)
	// cannot see without per-task knowledge.
	bounded := boundedIrregularSpec(4096, 19)
	for _, tc := range []struct {
		name string
		spec OpSpec
	}{
		{"uniform", uniformSpec(4096, 2)},
		{"irregular", bounded},
	} {
		for _, p := range []int{32, 128, 512} {
			cfg := machine.DefaultConfig(p)
			est := FinishEstimate(cfg, tc.spec, p).Total()
			r, err := RunOp(cfg, tc.spec, RunOpts{Processors: p, Mode: ModeTaper})
			if err != nil {
				t.Fatal(err)
			}
			actual := r.Makespan
			ratio := est / actual
			if ratio < 0.4 || ratio > 2.5 {
				t.Errorf("%s p=%d: estimate %v vs actual %v (ratio %.2f)",
					tc.name, p, est, actual, ratio)
			}
		}
	}
}

func TestEstimateRanksAllocations(t *testing.T) {
	// The estimator's real job: given two operations, the allocation it
	// prefers should execute no worse than allocations it rejects —
	// each operation on its own dedicated subset, as §4.1.2 defines an
	// allocation, so nothing smooths a bad one over.
	cfg := machine.DefaultConfig(256)
	a := irregularSpec(4096, 23)
	b := uniformSpec(2048, 1)
	run := func(spec OpSpec, p int) float64 {
		r, err := RunOp(cfg, spec, RunOpts{Processors: p, Mode: ModeTaper})
		if err != nil {
			t.Fatal(err)
		}
		return r.Makespan
	}
	dedicated := func(p1, p2 int) float64 { return max(run(a, p1), run(b, p2)) }

	p1, p2 := allocatePair(cfg, a, b, 256)
	chosen := dedicated(p1, p2)
	// Compare against two deliberately bad splits.
	for _, bad := range [][2]int{{32, 224}, {224, 32}} {
		if r := dedicated(bad[0], bad[1]); chosen > 1.15*r {
			t.Errorf("chosen %d/%d (%v) much worse than %v (%v)", p1, p2, chosen, bad, r)
		}
	}
}

func TestChoosePairGranularity(t *testing.T) {
	cfg := machine.DefaultConfig(64)
	prod := uniformSpec(4096, 2)
	m := ChoosePairGranularity(cfg, prod, 32, 64)
	if m < 1 || m > 4096/16 {
		t.Fatalf("m = %d, want within [1, 256]", m)
	}
	// Small operations still get at least one item per batch.
	tiny := uniformSpec(4, 1)
	if ChoosePairGranularity(cfg, tiny, 2, 64) < 1 {
		t.Fatal("degenerate granularity")
	}
	// Under a zero cost model only the fill limits a batch: n/16 of the
	// producer's tasks, at least one, with or without a task time. A
	// cap below one task, or a producer without μ, must not leave the
	// cost model's batch of n, which would turn the edge into a barrier.
	for _, c := range []struct {
		name string
		prod OpSpec
		p    int
		want int
	}{
		{"zero cost", uniformSpec(1024, 1), 2, 64},
		{"zero cost, one worker", uniformSpec(2048, 1), 1, 128},
		{"zero cost, n < 16", uniformSpec(8, 1), 2, 1},
		{"mu = 0", OpSpec{Op: sched.Op{N: 1024, Bytes: 64}}, 2, 64},
		{"mu = 0, n < 16", OpSpec{Op: sched.Op{N: 15, Bytes: 64}}, 2, 1},
	} {
		if got := ChoosePairGranularity(machine.Config{}, c.prod, c.p, 64); got != c.want {
			t.Errorf("%s: batch %d, want %d", c.name, got, c.want)
		}
	}
	// Under a zero cost model finish is n·μ/p, so the batch is exactly
	// ⌊n/16⌋ at every p: the compute term is never converted through μ
	// and back, where n·μ/p·p can round below n.
	for n := 16; n <= 4096; n *= 2 {
		for p := 1; p <= 64; p++ {
			if got := ChoosePairGranularity(machine.Config{}, uniformSpec(n, 1), p, 64); got != n/16 {
				t.Errorf("zero cost, n=%d p=%d: batch %d, want %d", n, p, got, n/16)
			}
		}
	}
	// The simulator's model caps a producer without μ at n/16 too.
	if got := ChoosePairGranularity(cfg, OpSpec{Op: sched.Op{N: 4096, Bytes: 64}}, 32, 0); got != 256 {
		t.Errorf("mu = 0 on the simulator's model: batch %d, want 256", got)
	}
}
