package workload_test

import (
	"testing"

	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/workload"
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

// TestMemChainParity: the bandwidth chain must produce bitwise-
// identical memory images under every schedule — barriered reference,
// gate-pipelined, and cache-chained — and the chained run must
// actually engage the chain path (including across the stencil's
// halo-widened blocks).
func TestMemChainParity(t *testing.T) {
	const n = 100000
	_, want := runMemChain(t, 1, n, rts.ModeStatic, rts.ChainOff)
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
