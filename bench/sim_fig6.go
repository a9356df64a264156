package main

import (
	"fmt"
	"math"
	"time"

	"orchestra/internal/machine"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
	"orchestra/internal/trace"
	"orchestra/internal/workload"
)

const (
	// simProcs is the processor count of the paper's Figure 6 and
	// Table 1 cells.
	simProcs = 512
	// simSeed draws the applications. It is fixed: the simulator's own
	// running time depends on the draw (seed 203 takes 107 ms an op
	// where seed 201 takes 71 ms), so cells drawn from -seed would differ
	// from run to run by more than any bound. -seed decides which of the
	// two cells goes first.
	simSeed = 7
)

// simCell is one application at the paper's size.
type simCell struct {
	name  string
	build func() *workload.App
	// want is the efficiency set-up measured under split; every later
	// run must repeat it bit for bit.
	want float64
}

// simFig6 runs the paper's cells on the discrete-event simulator: the
// event heap, the DAG executor and the scheduling policies are the work.
type simFig6 struct {
	cells []*simCell
	next  int
}

func setupSimFig6(cfg config) (*instance, error) {
	w := &simFig6{next: int(cfg.seed % 2), cells: []*simCell{
		{name: "psirrfan", build: func() *workload.App { return workload.Psirrfan(workload.Config{N: 4096, Seed: simSeed}) }},
		{name: "climate", build: func() *workload.App { return workload.Climate(workload.Config{N: 3200, Seed: simSeed}) }},
	}}
	for _, c := range w.cells {
		res, _, err := w.run(nil, -1, false, c, rts.ModeSplit)
		if err != nil {
			return nil, err
		}
		c.want = res.Efficiency()
		if cfg.corrupt {
			c.want++
		}
	}
	return &instance{
		clients: 1,
		op: func(tr *tracer, _ int) (time.Duration, error) {
			c := w.cells[w.next%len(w.cells)]
			w.next++
			root := tr.begin("op", -1)
			defer tr.end(root)
			res, lat, err := w.run(tr, root, tr != nil, c, rts.ModeSplit)
			if err != nil {
				return lat, err
			}
			if got := res.Efficiency(); math.Float64bits(got) != math.Float64bits(c.want) {
				return lat, fmt.Errorf("sim: %s efficiency %v, want %v", c.name, got, c.want)
			}
			return lat, nil
		},
		endToEnd: func(m metrics) { m.set("sim_efficiency", w.geomean()) },
		layers:   w.layers,
		close:    func() {},
	}, nil
}

// geomean is the geometric mean of the cells' split efficiencies.
func (w *simFig6) geomean() float64 {
	logSum := 0.0
	for _, c := range w.cells {
		logSum += math.Log(c.want)
	}
	return math.Exp(logSum / float64(len(w.cells)))
}

// run builds the application afresh and simulates it once, which is
// what experiment.RunApp does. Efficiency is against the original
// program's sequential work.
func (w *simFig6) run(tr *tracer, parent int, sink bool, c *simCell, mode rts.Mode) (trace.Result, time.Duration, error) {
	opts := rts.RunOpts{Processors: simProcs, Mode: mode}
	var col obs.Collector
	if sink {
		opts.Sink = &col
	}
	t0 := time.Now()
	s := tr.begin("workload.Build", parent)
	app := c.build()
	tr.end(s)
	s = tr.begin("rts.RunGraph", parent)
	res, err := rts.RunGraph(machine.DefaultConfig(simProcs), app.GraphFor(mode, simProcs), app.Bind, opts)
	tr.end(s)
	lat := time.Since(t0)
	tr.countEvents(col.Trace)
	res.SeqTime = app.SeqTime()
	return res, lat, err
}

// layers runs each cell under split and under TAPER and times the
// application build on its own.
func (w *simFig6) layers(tr *tracer, budget time.Duration, m metrics) error {
	var split, taper, build, rate []float64
	var chunks, messages float64
	err := callers(1, budget, func() error {
		chunks, messages = 0, 0
		for _, c := range w.cells {
			for _, mode := range []rts.Mode{rts.ModeSplit, rts.ModeTaper} {
				root := tr.begin("sim."+c.name+"."+mode.String(), -1)
				res, lat, err := w.run(tr, root, false, c, mode)
				tr.end(root)
				if err != nil {
					return err
				}
				suffix := "_taper"
				if mode == rts.ModeSplit {
					suffix = "_split"
					split = append(split, ms(lat))
					rate = append(rate, float64(res.Chunks)/lat.Seconds())
					chunks += float64(res.Chunks)
					messages += float64(res.Messages)
				} else {
					taper = append(taper, ms(lat))
				}
				m.set("sim.eff_"+c.name+suffix, res.Efficiency())
			}
			t0 := time.Now()
			c.build()
			build = append(build, ms(time.Since(t0)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("sim.run_ms", median(split))
	m.set("sim.taper_run_ms", median(taper))
	m.set("sim.build_ms", median(build))
	m.set("sim.chunks", chunks)
	m.set("sim.messages", messages)
	m.set("sim.chunks_per_s", median(rate))
	m.set("sim.efficiency", w.geomean())
	return nil
}
