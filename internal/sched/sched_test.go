package sched

import (
	"math"
	"strings"
	"testing"

	"orchestra/internal/fault"
	"orchestra/internal/machine"
	"orchestra/internal/obs"
	"orchestra/internal/stats"
	"orchestra/internal/trace"
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
				k := pol.NextChunk(rem, p, ts)
				if k < 1 || k > rem {
					t.Errorf("%s: NextChunk(%d, %d) = %d out of bounds", pol.Name(), rem, p, k)
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
	if k := (GSS{}).NextChunk(100, 4, nil); k != 25 {
		t.Fatalf("GSS chunk = %d, want 25", k)
	}
	if k := (GSS{}).NextChunk(3, 4, nil); k != 1 {
		t.Fatalf("GSS small chunk = %d, want 1", k)
	}
}

func TestFactoringBatches(t *testing.T) {
	f := &Factoring{}
	// First batch with R=100, p=4: chunk = ceil(100/8) = 13 for 4 calls.
	for i := 0; i < 4; i++ {
		if k := f.NextChunk(100-13*i, 4, nil); k != 13 {
			t.Fatalf("factoring call %d = %d, want 13", i, k)
		}
	}
	// Next batch recomputes from the new remaining (48): ceil(48/8)=6.
	if k := f.NextChunk(48, 4, nil); k != 6 {
		t.Fatalf("second batch chunk = %d, want 6", k)
	}
}

func TestTaperReducesToGSSWithoutVariance(t *testing.T) {
	ts := NewTaskStats(10000)
	for i := 0; i < 200; i++ {
		ts.Observe(i, 2.0) // zero variance
	}
	tp := &Taper{}
	k := tp.NextChunk(1000, 10, ts)
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
	kLow := tp.NextChunk(1000, 10, low)
	kHigh := tp.NextChunk(1000, 10, high)
	if kHigh >= kLow {
		t.Fatalf("variance should shrink chunks: low=%d high=%d", kLow, kHigh)
	}
}

func TestTaperFallbackBeforeSamples(t *testing.T) {
	tp := &Taper{}
	ts := NewTaskStats(1000)
	k := tp.NextChunk(1000, 10, ts)
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
		k := tp.NextChunk(rem, 16, ts)
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

func TestStaticUniformEfficiency(t *testing.T) {
	op := uniformOp(16384, 1.0)
	r := ExecuteStatic(machine.DefaultConfig(16), op, procList(16), obs.OpObs{})
	if eff := r.Efficiency(); eff < 0.95 {
		t.Fatalf("static on uniform work: eff = %v", eff)
	}
	if r.Steals != 0 || r.Messages != 0 {
		t.Fatal("static must not steal or message")
	}
}

func TestStaticIrregularImbalance(t *testing.T) {
	op := irregularOp(1024, 1)
	r := ExecuteStatic(machine.DefaultConfig(32), op, procList(32), obs.OpObs{})
	if r.LoadImbalance() < 1.2 {
		t.Fatalf("irregular static load should be imbalanced: %v", r.LoadImbalance())
	}
}

func TestDistributedBeatsStaticOnIrregular(t *testing.T) {
	op := irregularOp(2048, 3)
	p := 64
	st := ExecuteStatic(machine.DefaultConfig(p), op, procList(p), obs.OpObs{})
	tp := ExecuteDistributed(machine.DefaultConfig(p), op, procList(p),
		func() Policy { return &Taper{UseCostFunction: true} }, obs.OpObs{})
	if tp.Makespan >= st.Makespan {
		t.Fatalf("TAPER (%v) should beat static (%v) on irregular work", tp.Makespan, st.Makespan)
	}
	if tp.Speedup() <= st.Speedup() {
		t.Fatalf("TAPER speedup %v <= static %v", tp.Speedup(), st.Speedup())
	}
}

func TestDistributedLocalityOnUniform(t *testing.T) {
	// With uniform tasks, almost nothing should be stolen.
	op := uniformOp(32768, 1.0)
	p := 32
	r := ExecuteDistributed(machine.DefaultConfig(p), op, procList(p),
		func() Policy { return &Taper{} }, obs.OpObs{})
	if r.Steals > p {
		t.Fatalf("uniform work stole %d chunks", r.Steals)
	}
	if eff := r.Efficiency(); eff < 0.9 {
		t.Fatalf("uniform distributed eff = %v", eff)
	}
}

func TestCentralExecutesAllWork(t *testing.T) {
	op := irregularOp(512, 9)
	p := 8
	r := ExecuteCentral(machine.DefaultConfig(p), op, procList(p),
		func() Policy { return &GSS{} }, obs.OpObs{})
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

func TestDistributedExecutesAllWork(t *testing.T) {
	for _, p := range []int{1, 3, 16} {
		op := irregularOp(333, 11)
		r := ExecuteDistributed(machine.DefaultConfig(p), op, procList(p),
			func() Policy { return &Taper{} }, obs.OpObs{})
		var busy float64
		for _, b := range r.Busy {
			busy += b
		}
		if busy < r.SeqTime-1e-9 {
			t.Fatalf("p=%d: busy %v < seq %v", p, busy, r.SeqTime)
		}
		if r.Makespan < r.SeqTime/float64(p)-1e-9 {
			t.Fatalf("p=%d: makespan %v below ideal %v", p, r.Makespan, r.SeqTime/float64(p))
		}
	}
}

func TestDeterminism(t *testing.T) {
	op := irregularOp(512, 21)
	run := func() float64 {
		return ExecuteDistributed(machine.DefaultConfig(16), op, procList(16),
			func() Policy { return &Taper{UseCostFunction: true} }, obs.OpObs{}).Makespan
	}
	if run() != run() {
		t.Fatal("distributed execution not deterministic")
	}
}

func TestSelfSchedulingOverheadHurts(t *testing.T) {
	// With many tiny tasks, SS pays per-task dispatch; TAPER batches.
	op := uniformOp(4096, 0.5)
	p := 16
	ss := ExecuteCentral(machine.DefaultConfig(p), op, procList(p),
		func() Policy { return SelfSched{} }, obs.OpObs{})
	tp := ExecuteCentral(machine.DefaultConfig(p), op, procList(p),
		func() Policy { return &Taper{} }, obs.OpObs{})
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

// TestExecutorsCallEachBodyOnce: every executor calls each task body
// exactly once — inside a chunk, never in an accounting pass — and
// still reports the sequential time TotalTime would.
func TestExecutorsCallEachBodyOnce(t *testing.T) {
	const n, p = 300, 8
	cfg := machine.DefaultConfig(p)
	taper := func() Policy { return &Taper{UseCostFunction: true} }
	cost := func(i int) float64 { return 1 + float64(i%5)/3 }
	want := Op{N: n, Time: cost}.TotalTime()
	runs := map[string]func(Op) trace.Result{
		"static":      func(op Op) trace.Result { return ExecuteStatic(cfg, op, procList(p), obs.OpObs{}) },
		"central":     func(op Op) trace.Result { return ExecuteCentral(cfg, op, procList(p), taper, obs.OpObs{}) },
		"distributed": func(op Op) trace.Result { return ExecuteDistributed(cfg, op, procList(p), taper, obs.OpObs{}) },
	}
	for name, run := range runs {
		calls := make([]int, n)
		r := run(Op{Name: name, N: n, Bytes: 64, Time: func(i int) float64 {
			calls[i]++
			return cost(i)
		}})
		for i, c := range calls {
			if c != 1 {
				t.Fatalf("%s: task %d body called %d times, want 1", name, i, c)
			}
		}
		if r.SeqTime != want {
			t.Fatalf("%s: SeqTime %v, want %v", name, r.SeqTime, want)
		}
	}
}

// TestDistributedFaultLostWorkIsAnError: a plan that kills every
// processor (fault.Plan.Validate refuses those; this one goes in below
// it) strands tasks, and the executor must say so.
func TestDistributedFaultLostWorkIsAnError(t *testing.T) {
	plan, err := fault.Parse("crash:0@1,crash:1@1")
	if err != nil {
		t.Fatal(err)
	}
	_, err = ExecuteDistributedFault(machine.DefaultConfig(2), uniformOp(64, 1), procList(2),
		func() Policy { return &Taper{} }, obs.OpObs{}, fault.NewExec(plan, 2))
	if err == nil || !strings.Contains(err.Error(), "tasks outstanding") {
		t.Fatalf("error = %v, want a stall naming the outstanding tasks", err)
	}
}
