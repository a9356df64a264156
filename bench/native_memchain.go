package main

import (
	"fmt"
	"math"
	"time"

	"orchestra/internal/delirium"
	"orchestra/internal/interp"
	"orchestra/internal/native"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
	"orchestra/internal/trace"
	"orchestra/internal/workload"
)

// memchainN elements per array: five arrays of 32 MiB, far above the
// last-level cache (both sizes are in the env block).
const memchainN = 1 << 22

// nativeMemchain is the native engine bound by memory traffic: five
// streaming stages whose arithmetic is negligible, so the prefix gate
// and the chain scheduler do the work.
type nativeMemchain struct {
	app        *workload.App
	st         *interp.State
	wantFold   float64
	wantDigest string
	p          int
}

func setupNativeMemchain(cfg config) (*instance, error) {
	// The arrays are allocated here, once, and every run overwrites
	// every element.
	app, st := workload.MemChain(workload.Config{N: memchainN, Seed: cfg.seed})
	w := &nativeMemchain{app: app, st: st, p: cfg.p}
	if _, _, err := w.exec(nil, -1, false, app.SeqGraph, 1, rts.ChainAuto); err != nil {
		return nil, err
	}
	w.wantFold = w.fold()
	w.wantDigest = native.StateDigest(st)
	if cfg.corrupt {
		w.wantFold++
	}
	return &instance{
		clients: 1,
		op: func(tr *tracer, _ int) (time.Duration, error) {
			root := tr.begin("op", -1)
			defer tr.end(root)
			_, lat, err := w.run(tr, root, tr != nil, app.SplitGraph, w.p, rts.ChainAuto)
			return lat, err
		},
		baseline: func() (time.Duration, error) {
			_, lat, err := w.run(nil, -1, false, app.SeqGraph, 1, rts.ChainAuto)
			return lat, err
		},
		layers: w.layers,
		finish: func() error {
			if got := native.StateDigest(st); got != w.wantDigest {
				return fmt.Errorf("memchain: final state digest %s, want %s", got, w.wantDigest)
			}
			return nil
		},
		close: func() {},
	}, nil
}

// fold sums the reduce stage's partials in index order.
func (w *nativeMemchain) fold() float64 {
	sum := 0.0
	for _, v := range w.st.Arrays["reduce"] {
		sum += v
	}
	return sum
}

// run executes g once and checks, untimed, that reduce folds to the
// reference value.
func (w *nativeMemchain) run(tr *tracer, parent int, sink bool, g *delirium.Graph, workers int, chain rts.ChainPolicy) (trace.Result, time.Duration, error) {
	res, lat, err := w.exec(tr, parent, sink, g, workers, chain)
	if err != nil {
		return res, lat, err
	}
	if got := w.fold(); math.Float64bits(got) != math.Float64bits(w.wantFold) {
		return res, lat, fmt.Errorf("memchain: reduce folds to %v, want %v", got, w.wantFold)
	}
	return res, lat, nil
}

// exec executes g once over the shared arrays. The last stage's array is
// cleared first, untimed, so that a run which skips tasks cannot pass on
// the previous run's values.
func (w *nativeMemchain) exec(tr *tracer, parent int, sink bool, g *delirium.Graph, workers int, chain rts.ChainPolicy) (trace.Result, time.Duration, error) {
	clear(w.st.Arrays["reduce"])
	opts := rts.RunOpts{Processors: workers, Mode: rts.ModeSplit, Chain: chain}
	var col obs.Collector
	if sink {
		opts.Sink = &col
	}
	t0 := time.Now()
	s := tr.begin("native.Run", parent)
	res, err := native.Backend{}.Run(g, rts.BindClosure(w.app.Bind), opts)
	tr.end(s)
	lat := time.Since(t0)
	tr.countEvents(col.Trace)
	return res, lat, err
}

// layers compares the chained run at P with the one-worker sequential
// graph and with the same split graph unchained.
func (w *nativeMemchain) layers(tr *tracer, budget time.Duration, m metrics) error {
	type cell struct {
		name    string
		g       *delirium.Graph
		workers int
		chain   rts.ChainPolicy
		wall    []float64
	}
	cells := []*cell{
		{name: "native.memchain_ms", g: w.app.SplitGraph, workers: w.p, chain: rts.ChainAuto},
		{name: "native.memchain_seq_ms", g: w.app.SeqGraph, workers: 1, chain: rts.ChainAuto},
		{name: "native.memchain_unchained_ms", g: w.app.SplitGraph, workers: w.p, chain: rts.ChainOff},
	}
	var hits, spills, chunks, gbps []float64
	err := callers(1, budget, func() error {
		for _, c := range cells {
			root := tr.begin(c.name, -1)
			res, lat, err := w.run(tr, root, false, c.g, c.workers, c.chain)
			tr.end(root)
			if err != nil {
				return err
			}
			c.wall = append(c.wall, ms(lat))
			if c != cells[0] {
				continue
			}
			hits = append(hits, float64(res.ChainHits))
			spills = append(spills, float64(res.ChainSpills))
			chunks = append(chunks, float64(res.Chunks))
			// Computed, not measured: the five stages read four arrays
			// and write five, 9·8·N bytes if nothing stays in cache.
			gbps = append(gbps, 9*8*memchainN/res.Makespan/1e9)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, c := range cells {
		m.set(c.name, median(c.wall))
	}
	m.set("native.memchain_speedup_vs_seq", median(cells[1].wall)/median(cells[0].wall))
	m.set("native.chain_hits", median(hits))
	m.set("native.chain_spills", median(spills))
	m.set("native.memchain_chunks", median(chunks))
	m.set("native.memchain_gbps", median(gbps))
	return nil
}
