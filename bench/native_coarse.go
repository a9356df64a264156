package main

import (
	"time"

	"orchestra/internal/delirium"
	"orchestra/internal/native"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
	"orchestra/internal/trace"
	"orchestra/internal/workload"
)

const (
	coarseN = 1024
	// coarseIters is the spin work of one op, whatever graph runs it:
	// about 110 ms on one worker of the dev box. It is fixed per op and
	// not per time unit, so that the seed changes which tasks are heavy
	// and not how much work there is.
	coarseIters = 16e6
)

// nativeCoarse is the paper's claim on real cores: Psirrfan's split
// graph on P workers against its sequential graph on one, the same
// original tasks either way.
type nativeCoarse struct {
	app  *workload.App
	cov  *coverage
	unit float64
	want int32 // executions of each original task that count as correct
	p    int
}

func setupNativeCoarse(cfg config) (*instance, error) {
	app := workload.Psirrfan(workload.Config{N: coarseN, Seed: cfg.seed})
	w := &nativeCoarse{app: app, cov: newCoverage(app), unit: coarseIters / app.SeqTime(), want: 1, p: cfg.p}
	// The reference: the baseline must itself cover every task once.
	if _, _, err := w.run(nil, -1, false, app.SeqGraph, 1, rts.ModeTaper); err != nil {
		return nil, err
	}
	if cfg.corrupt {
		w.want = 2
	}
	return &instance{
		clients: 1,
		op: func(tr *tracer, _ int) (time.Duration, error) {
			root := tr.begin("op", -1)
			defer tr.end(root)
			_, lat, err := w.run(tr, root, tr != nil, app.SplitGraph, w.p, rts.ModeSplit)
			return lat, err
		},
		baseline: func() (time.Duration, error) {
			_, lat, err := w.run(nil, -1, false, app.SeqGraph, 1, rts.ModeTaper)
			return lat, err
		},
		layers: w.layers,
		close:  func() {},
	}, nil
}

// run binds and executes g once and checks the coverage. The returned
// latency is the wall clock around the two public calls. With sink the
// engine records its events.
func (w *nativeCoarse) run(tr *tracer, parent int, sink bool, g *delirium.Graph, workers int, mode rts.Mode) (trace.Result, time.Duration, error) {
	w.cov.reset()
	opts := rts.RunOpts{Processors: workers, Mode: mode}
	var col obs.Collector
	if sink {
		opts.Sink = &col
	}
	t0 := time.Now()
	s := tr.begin("rts.BindClosure", parent)
	bound := rts.BindClosure(conserving(w.app, w.cov, w.unit))
	tr.end(s)
	s = tr.begin("native.Run", parent)
	res, err := native.Backend{}.Run(g, bound, opts)
	tr.end(s)
	lat := time.Since(t0)
	tr.countEvents(col.Trace)
	if err == nil {
		err = w.cov.err(w.want)
	}
	return res, lat, err
}

// layers walks the orchestration ladder on the same work: static and
// TAPER on the sequential graph at P, split at P, and the one-worker
// baseline.
func (w *nativeCoarse) layers(tr *tracer, budget time.Duration, m metrics) error {
	type cell struct {
		name    string
		g       *delirium.Graph
		workers int
		mode    rts.Mode
		wall    []float64
	}
	cells := []*cell{
		{name: "native.run_ms", g: w.app.SplitGraph, workers: w.p, mode: rts.ModeSplit},
		{name: "native.seq_ms", g: w.app.SeqGraph, workers: 1, mode: rts.ModeTaper},
		{name: "native.taper_ms", g: w.app.SeqGraph, workers: w.p, mode: rts.ModeTaper},
		{name: "native.static_ms", g: w.app.SeqGraph, workers: w.p, mode: rts.ModeStatic},
	}
	var chunks, steals, busy, overhead, imbalance, startup []float64
	err := callers(1, budget, func() error {
		for _, c := range cells {
			root := tr.begin(c.name, -1)
			res, lat, err := w.run(tr, root, false, c.g, c.workers, c.mode)
			tr.end(root)
			if err != nil {
				return err
			}
			c.wall = append(c.wall, ms(lat))
			if c != cells[0] {
				continue
			}
			capacity := float64(w.p) * res.Makespan
			chunks = append(chunks, float64(res.Chunks))
			steals = append(steals, float64(res.Steals))
			busy = append(busy, res.TotalBusy()/capacity)
			overhead = append(overhead, (capacity-res.TotalBusy())/float64(res.Chunks)*1e6)
			imbalance = append(imbalance, res.LoadImbalance())
			startup = append(startup, lat.Seconds()*1e6-res.Makespan*1e6)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, c := range cells {
		m.set(c.name, median(c.wall))
	}
	m.set("native.speedup_vs_seq", median(cells[1].wall)/median(cells[0].wall))
	m.set("native.chunks", median(chunks))
	m.set("native.steals", median(steals))
	m.set("native.busy_share", median(busy))
	m.set("native.overhead_us_per_chunk", median(overhead))
	m.set("native.load_imbalance", median(imbalance))
	m.set("native.startup_us", median(startup))
	return nil
}
