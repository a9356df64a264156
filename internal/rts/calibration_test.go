package rts

import (
	"fmt"
	"math"
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/machine"
	"orchestra/internal/obs"
	"orchestra/internal/sched"
	"orchestra/internal/stats"
)

// logNormalSpec builds a seeded operation whose task times are
// log-normal with mean ≈ 1 and the requested coefficient of
// variation, the irregularity family the paper's workloads use.
func logNormalSpec(n int, cv float64, seed uint64) OpSpec {
	rng := stats.NewRNG(seed)
	times := make([]float64, n)
	if cv <= 0 {
		for i := range times {
			times[i] = 1
		}
	} else {
		sigma := math.Sqrt(math.Log(1 + cv*cv))
		mu := -sigma * sigma / 2
		for i := range times {
			times[i] = rng.LogNormal(mu, sigma)
		}
	}
	t := times
	s := OpSpec{Op: sched.Op{
		Name: "cal", N: n, Bytes: 64,
		Time: func(i int) float64 { return t[i] },
		Hint: func(i int) float64 { return t[i] },
	}}
	s.SampleStats(128)
	return s
}

// TestCalibrationContract is the contract every allocation decision
// relies on: the terms of equation (1) must agree with what a traced
// execution actually measures, across the
// (cv, p) grid the workloads occupy. Specifically, against the obs
// trace of a seeded single-operator run:
//
//   - the predicted TAPER chunk count tracks the number of KindChunk
//     events within 3× either way (the executed policy additionally
//     pays factoring-sized cold-start chunks before its statistics
//     warm, which the steady-state recurrence deliberately omits), and
//   - the Compute term (N·μ/p, the per-processor compute share) tracks
//     the measured per-processor busy time within 30%.
//
// If this test starts failing, the allocator is modelling a
// different runtime than the one that executes — fix the
// estimator (or the executor), not the tolerances.
func TestCalibrationContract(t *testing.T) {
	const n = 4096
	for _, cv := range []float64{0.5, 1.0, 1.5} {
		for _, p := range []int{4, 16, 64} {
			t.Run(fmt.Sprintf("cv=%.1f/p=%d", cv, p), func(t *testing.T) {
				spec := logNormalSpec(n, cv, 0xca1^uint64(p)+uint64(cv*8))
				g := delirium.NewGraph("cal")
				if err := g.AddNode(&delirium.Node{Name: "cal", Kind: delirium.Par, Tasks: "n"}); err != nil {
					t.Fatal(err)
				}
				cfg := machine.DefaultConfig(p)
				var col obs.Collector
				res, err := RunGraph(cfg, g, func(string) OpSpec { return spec },
					RunOpts{Processors: p, Mode: ModeTaper, Sink: &col})
				if err != nil {
					t.Fatal(err)
				}
				tr := col.Trace
				if tr == nil {
					t.Fatal("no trace collected")
				}

				// Chunk-count calibration, from the trace itself.
				chunks, busy := 0, 0.0
				for _, ev := range tr.Events {
					if ev.Kind == obs.KindChunk {
						chunks++
						busy += ev.T1 - ev.T0
					}
				}
				if chunks != res.Chunks {
					t.Fatalf("trace has %d chunk events, result says %d", chunks, res.Chunks)
				}
				cvMeasured := 0.0
				if spec.Mu > 0 {
					cvMeasured = spec.Sigma / spec.Mu
				}
				predicted := PredictChunks(n, p, cvMeasured)
				if r := float64(predicted) / float64(chunks); r < 1.0/3 || r > 3 {
					t.Errorf("predicted %d chunks, measured %d (ratio %.2f outside [1/3, 3])",
						predicted, chunks, r)
				}

				// Compute-share calibration: the trace's total busy time
				// divided by p is the measured share of equation (1)'s
				// Compute term.
				est := FinishEstimate(cfg, spec, p)
				share := busy / float64(p)
				if d := math.Abs(est.Compute-share) / share; d > 0.30 {
					t.Errorf("Compute term %v vs measured share %v (%.0f%% off)",
						est.Compute, share, 100*d)
				}
			})
		}
	}
}
