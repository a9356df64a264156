package sched

import (
	"math"
	"testing"

	"orchestra/internal/machine"
	"orchestra/internal/stats"
)

func uniformOp(n int, t float64) Op {
	return Op{Name: "uniform", N: n, Time: func(int) float64 { return t }, Bytes: 64}
}

func irregularOp(n int, seed uint64) Op {
	rng := stats.NewRNG(seed)
	d := stats.Bimodal{PA: 0.8, A: stats.Constant{V: 1}, B: stats.LogNormalDist{Mu: 2.5, Sigma: 0.8}}
	times := make([]float64, n)
	for i := range times {
		times[i] = d.Sample(rng)
	}
	return Op{Name: "irregular", N: n, Time: func(i int) float64 { return times[i] }, Bytes: 64}
}

func procList(p int) []int {
	out := make([]int, p)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestPolicyChunkBounds(t *testing.T) {
	ts := NewTaskStats(1000)
	for i := 0; i < 100; i++ {
		ts.Observe(i, 1.0+float64(i%7))
	}
	policies := []Policy{SelfSched{}, GSS{}, &Factoring{}, &Taper{}}
	for _, pol := range policies {
		for _, rem := range []int{1, 2, 5, 100, 1000} {
			for _, p := range []int{1, 4, 64} {
				k := pol.NextChunk(rem, p, -1, 0, ts)
				if k < 1 || k > rem {
					t.Errorf("%s: NextChunk(%d, %d, ...) = %d out of bounds", pol.Name(), rem, p, k)
				}
			}
		}
	}
}

func TestObserveChunk(t *testing.T) {
	ts := NewTaskStats(1000)
	ts.ObserveChunk(0, 10, 30)   // 10 tasks of mean 3 in the first bin
	ts.ObserveChunk(900, 50, 50) // 50 tasks of mean 1 in the last bin
	// The aggregate enters as k observations of the chunk mean, so the
	// global mean is the task-weighted mean (30+50)/60, exactly what
	// per-task Observe calls would have produced.
	if got := ts.Global.Mean(); math.Abs(got-80.0/60.0) > 1e-12 {
		t.Fatalf("global mean after two chunk observations = %v, want %v", got, 80.0/60.0)
	}
	if got := ts.Global.N(); got != 60 {
		t.Fatalf("N after two chunk observations = %v, want 60", got)
	}
	if lo := ts.RegionMean(0, 100); math.Abs(lo-3) > 1e-12 {
		t.Errorf("RegionMean(0,100) = %v, want 3 (chunk midpoint bin)", lo)
	}
	if hi := ts.RegionMean(900, 1000); math.Abs(hi-1) > 1e-12 {
		t.Errorf("RegionMean(900,1000) = %v, want 1", hi)
	}
	// Degenerate chunks must not observe anything.
	ts.ObserveChunk(0, 0, 5)
	if got := ts.Global.N(); got != 60 {
		t.Fatalf("zero-length chunk was recorded: N = %v", got)
	}
}

func TestGSSChunks(t *testing.T) {
	if k := (GSS{}).NextChunk(100, 4, -1, 0, nil); k != 25 {
		t.Fatalf("GSS chunk = %d, want 25", k)
	}
	if k := (GSS{}).NextChunk(3, 4, -1, 0, nil); k != 1 {
		t.Fatalf("GSS small chunk = %d, want 1", k)
	}
}

func TestFactoringBatches(t *testing.T) {
	f := &Factoring{}
	// First batch with R=100, p=4: chunk = ceil(100/8) = 13 for 4 calls.
	for i := 0; i < 4; i++ {
		if k := f.NextChunk(100-13*i, 4, -1, 0, nil); k != 13 {
			t.Fatalf("factoring call %d = %d, want 13", i, k)
		}
	}
	// Next batch recomputes from the new remaining (48): ceil(48/8)=6.
	if k := f.NextChunk(48, 4, -1, 0, nil); k != 6 {
		t.Fatalf("second batch chunk = %d, want 6", k)
	}
}

func TestTaperReducesToGSSWithoutVariance(t *testing.T) {
	ts := NewTaskStats(10000)
	for i := 0; i < 200; i++ {
		ts.Observe(i, 2.0) // zero variance
	}
	tp := &Taper{}
	k := tp.NextChunk(1000, 10, -1, 0, ts)
	// With cv = 0 the rule gives exactly R/p.
	if k != 100 {
		t.Fatalf("TAPER with zero variance = %d, want 100", k)
	}
}

func TestTaperShrinksWithVariance(t *testing.T) {
	low := NewTaskStats(10000)
	high := NewTaskStats(10000)
	rng := stats.NewRNG(42)
	for i := 0; i < 500; i++ {
		low.Observe(i, 2.0+0.01*rng.Float64())
		high.Observe(i, rng.LogNormal(0.5, 1.2))
	}
	tp := &Taper{}
	kLow := tp.NextChunk(1000, 10, -1, 0, low)
	kHigh := tp.NextChunk(1000, 10, -1, 0, high)
	if kHigh >= kLow {
		t.Fatalf("variance should shrink chunks: low=%d high=%d", kLow, kHigh)
	}
}

// TestTaperWidth pins TAPER's confidence width ω(p) = √(2·ln(p+1)), the one
// definition the policy and rts.PredictChunks share.
func TestTaperWidth(t *testing.T) {
	for _, tc := range []struct {
		p    int
		want float64
	}{{1, 1.1774100225154747}, {2, 1.4823038073675112}, {512, 3.5327824289561818}} {
		if got := TaperWidth(tc.p); math.Abs(got-tc.want) > 1e-15 {
			t.Errorf("TaperWidth(%d) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestTaperFallbackBeforeSamples(t *testing.T) {
	tp := &Taper{}
	ts := NewTaskStats(1000)
	k := tp.NextChunk(1000, 10, -1, 0, ts)
	if k != 50 { // factoring-like R/(2p)
		t.Fatalf("fallback chunk = %d, want 50", k)
	}
}

func TestTaperChunksDecrease(t *testing.T) {
	ts := NewTaskStats(100000)
	rng := stats.NewRNG(7)
	for i := 0; i < 1000; i++ {
		ts.Observe(i, rng.LogNormal(0, 0.5))
	}
	tp := &Taper{}
	prev := math.MaxInt32
	for _, rem := range []int{10000, 5000, 1000, 200, 50} {
		k := tp.NextChunk(rem, 16, -1, 0, ts)
		if k > prev {
			t.Fatalf("chunks should not grow as work shrinks: rem=%d k=%d prev=%d", rem, k, prev)
		}
		prev = k
	}
}

func TestCostScale(t *testing.T) {
	ts := NewTaskStats(160)
	// First half cheap, second half expensive.
	for i := 0; i < 80; i++ {
		ts.Observe(i, 1.0)
	}
	for i := 80; i < 160; i++ {
		ts.Observe(i, 9.0)
	}
	cheap := ts.CostScale(0, 40)
	exp := ts.CostScale(120, 160)
	if cheap <= 1 {
		t.Fatalf("cheap region scale = %v, want > 1", cheap)
	}
	if exp >= 1 {
		t.Fatalf("expensive region scale = %v, want < 1", exp)
	}
	// Clamping.
	if ts.CostScale(120, 160) < 0.25-1e-9 {
		t.Fatal("scale below clamp")
	}
}

func TestCentralExecutesAllWork(t *testing.T) {
	op := irregularOp(512, 9)
	p := 8
	r := ExecuteCentral(machine.DefaultConfig(p), op, procList(p),
		func() Policy { return &GSS{} })
	var busy float64
	for _, b := range r.Busy {
		busy += b
	}
	// All task time must be accounted (busy includes comm, so >=).
	if busy < r.SeqTime {
		t.Fatalf("busy %v < seq %v: lost work", busy, r.SeqTime)
	}
	if r.Chunks == 0 {
		t.Fatal("no chunks dispatched")
	}
}

func TestSelfSchedulingOverheadHurts(t *testing.T) {
	// With many tiny tasks, SS pays per-task dispatch; TAPER batches.
	op := uniformOp(4096, 0.5)
	p := 16
	ss := ExecuteCentral(machine.DefaultConfig(p), op, procList(p),
		func() Policy { return SelfSched{} })
	tp := ExecuteCentral(machine.DefaultConfig(p), op, procList(p),
		func() Policy { return &Taper{} })
	if ss.Makespan <= tp.Makespan {
		t.Fatalf("SS (%v) should lose to TAPER (%v) on tiny tasks", ss.Makespan, tp.Makespan)
	}
	if ss.Chunks <= tp.Chunks {
		t.Fatal("SS should dispatch more chunks")
	}
}

func TestOwnerBlocks(t *testing.T) {
	// owner must partition tasks into p contiguous blocks.
	n, p := 100, 7
	counts := make([]int, p)
	prev := 0
	for i := 0; i < n; i++ {
		o := owner(i, n, p)
		if o < prev {
			t.Fatalf("owner not monotone at %d", i)
		}
		if o >= p {
			t.Fatalf("owner %d out of range", o)
		}
		prev = o
		counts[o]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("owners cover %d tasks, want %d", total, n)
	}
}

// TestNewTaskStatsZeroTasks: a zero-task operation must still produce a
// usable accumulator. binSize used to come out 0, so the first Observe
// or ObserveChunk call — even a defensive one — divided by zero.
func TestNewTaskStatsZeroTasks(t *testing.T) {
	ts := NewTaskStats(0)
	ts.Observe(0, 1)
	ts.ObserveChunk(0, 1, 2)
	if got := ts.Global.N(); got != 2 {
		t.Fatalf("N = %d, want 2", got)
	}
	if m := ts.RegionMean(0, 1); math.Abs(m-1.5) > 1e-12 {
		t.Fatalf("RegionMean = %v, want 1.5", m)
	}
	_ = ts.CostScale(0, 1)
}

// TestObserveChunkSpansBins: a chunk covering several bins must credit
// each bin with its share of the tasks, not lump everything into one
// bin and leave the others looking unsampled to RegionMean.
func TestObserveChunkSpansBins(t *testing.T) {
	ts := NewTaskStats(160) // 16 bins of 10
	ts.ObserveChunk(5, 30, 60)
	wantN := []int{5, 10, 10, 5}
	for b, want := range wantN {
		if got := ts.bins[b].N(); got != want {
			t.Errorf("bin %d: N = %d, want %d", b, got, want)
		}
	}
	for b := 4; b < len(ts.bins); b++ {
		if ts.bins[b].N() != 0 {
			t.Errorf("bin %d touched by chunk [5,35): N = %d", b, ts.bins[b].N())
		}
	}
	if got := ts.Global.N(); got != 30 {
		t.Fatalf("global N = %d, want 30", got)
	}
	if m := ts.RegionMean(0, 40); math.Abs(m-2) > 1e-12 {
		t.Fatalf("RegionMean(0,40) = %v, want 2", m)
	}
	// The last bin absorbs any overhang beyond n.
	ts2 := NewTaskStats(160)
	ts2.ObserveChunk(150, 20, 20)
	if got := ts2.bins[15].N(); got != 20 {
		t.Fatalf("overhanging chunk: last bin N = %d, want 20", got)
	}
}

// TestObserveChunkSingleTask: a one-task chunk must be exactly an
// Observe of that task.
func TestObserveChunkSingleTask(t *testing.T) {
	a := NewTaskStats(100)
	b := NewTaskStats(100)
	a.ObserveChunk(7, 1, 2.5)
	b.Observe(7, 2.5)
	if a.Global != b.Global || a.bins[0] != b.bins[0] {
		t.Fatalf("ObserveChunk(7,1,2.5) != Observe(7,2.5): %+v vs %+v", a.Global, b.Global)
	}
}
