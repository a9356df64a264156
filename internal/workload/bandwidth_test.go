package workload_test

import (
	"testing"

	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/stats"
	"orchestra/internal/workload"
)

// MemChain's memory image at seed 7, recorded from the stages' earlier
// per-element bodies: a kernel change that alters a value fails here
// even when every schedule agrees with every other.
const (
	memChainDigest100k = "adc1bea62f43fd1319b80e4e1b1a27d8d339c75efb99adeac79267dfff2ff0d4"
	memChainDigest4M   = "7125d05b81a20be1a8221c98c54e77625a5706f525f8863c204722a7b299f782"
)

// runMemChain executes a fresh MemChain instance natively and returns
// the result and the final state digest.
func runMemChain(t *testing.T, p, n int, mode rts.Mode, chain rts.ChainPolicy) (hits int, digest string) {
	t.Helper()
	app, st := workload.MemChain(workload.Config{N: n, Seed: 7})
	g := app.GraphFor(mode, p)
	r, err := (native.Backend{}).Run(g, rts.BindClosure(app.Bind), rts.RunOpts{Processors: p, Mode: mode, Chain: chain})
	if err != nil {
		t.Fatalf("p=%d mode=%v: %v", p, mode, err)
	}
	return r.ChainHits, native.StateDigest(st)
}

// TestMemChainParity: the bandwidth chain must produce the pinned
// memory image under every schedule — barriered reference,
// gate-pipelined, and cache-chained — and the chained run must
// actually engage the chain path (including across the stencil's
// halo-widened blocks).
func TestMemChainParity(t *testing.T) {
	const n = 100000
	_, want := runMemChain(t, 1, n, rts.ModeStatic, rts.ChainOff)
	if want != memChainDigest100k {
		t.Fatalf("n=%d: digest %s, want %s", n, want, memChainDigest100k)
	}
	if _, got := runMemChain(t, 2, 1<<22, rts.ModeSplit, rts.ChainAuto); got != memChainDigest4M {
		t.Fatalf("n=1<<22: digest %s, want %s", got, memChainDigest4M)
	}
	for _, p := range []int{2, 4, 8} {
		for _, chain := range []rts.ChainPolicy{rts.ChainAuto, rts.ChainOff} {
			hits, got := runMemChain(t, p, n, rts.ModeSplit, chain)
			if got != want {
				t.Fatalf("p=%d chain=%v: digest mismatch", p, chain)
			}
			if chain == rts.ChainAuto && hits == 0 {
				t.Errorf("p=%d: chained memchain run reported 0 chain hits", p)
			}
			if chain == rts.ChainOff && hits != 0 {
				t.Errorf("p=%d: ChainOff memchain run reported %d chain hits", p, hits)
			}
		}
	}
}

// TestKernelRangeMatchesTasks: each MemChain stage is one range body
// and Time(i) is its one-task range, so random cuts of every stage, the
// pieces run in random order, each as one range or task by task, must
// leave the image an all-per-task run leaves.
func TestKernelRangeMatchesTasks(t *testing.T) {
	rng := stats.NewRNG(27)
	for _, n := range []int{1, 2, 3, 7, 4096, 65539} {
		app, st := workload.MemChain(workload.Config{N: n, Seed: 7})
		for _, name := range app.Phases() {
			op := app.Bind(name).Op
			for i := 0; i < op.N; i++ {
				op.Time(i)
			}
		}
		want := native.StateDigest(st)
		for round := 0; round < 4; round++ {
			app, st := workload.MemChain(workload.Config{N: n, Seed: 7})
			for _, name := range app.Phases() {
				op := app.Bind(name).Op
				var pieces [][2]int
				for lo := 0; lo < op.N; {
					hi := min(op.N, lo+1+rng.Intn(1+rng.Intn(op.N)))
					pieces = append(pieces, [2]int{lo, hi})
					lo = hi
				}
				for _, k := range rng.Perm(len(pieces)) {
					lo, hi := pieces[k][0], pieces[k][1]
					cost := 0.0
					if rng.Intn(2) == 0 {
						cost = op.TimeRange(lo, hi)
					} else {
						for i := lo; i < hi; i++ {
							cost += op.Time(i)
						}
					}
					if cost != float64(hi-lo) {
						t.Fatalf("n=%d %s [%d, %d): reported %v", n, name, lo, hi, cost)
					}
				}
			}
			if got := native.StateDigest(st); got != want {
				t.Fatalf("n=%d round %d: mixed cuts digest %s, per-task %s", n, round, got, want)
			}
		}
	}
}

// TestGraphForSingleWorker is the regression test for the 1-worker
// split pessimization: TAPER+split measured ≈1.7× slower than plain
// TAPER on one worker (nothing to overlap, all the bookkeeping), so
// GraphFor must never hand out the split graph at workers == 1.
func TestGraphForSingleWorker(t *testing.T) {
	for _, app := range workload.All(500, 11) {
		if g := app.GraphFor(rts.ModeSplit, 1); g != app.SeqGraph {
			t.Errorf("%s: GraphFor(split, 1) = %s, want the unsplit graph", app.Name, g.Name)
		}
		if g := app.GraphFor(rts.ModeSplit, 2); g != app.SplitGraph {
			t.Errorf("%s: GraphFor(split, 2) = %s, want the split graph", app.Name, g.Name)
		}
		for _, mode := range []rts.Mode{rts.ModeStatic, rts.ModeTaper} {
			if g := app.GraphFor(mode, 8); g != app.SeqGraph {
				t.Errorf("%s: GraphFor(%v, 8) = %s, want the unsplit graph", app.Name, mode, g.Name)
			}
		}
	}
}
