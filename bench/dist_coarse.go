package main

import (
	"fmt"
	"os"
	"time"

	"orchestra/internal/delirium"
	"orchestra/internal/dist"
	"orchestra/internal/native"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
	"orchestra/internal/trace"
	"orchestra/internal/workload"
)

// distCoarse is the shared-nothing engine: P forked worker processes
// per run against one in-process native worker on the same graph and
// kernel.
type distCoarse struct {
	g       *delirium.Graph
	binding rts.Binding
	want    string
	p       int
}

// checkoutTmp points TMPDIR, under which dist keeps its sockets, at a new
// directory in the working directory: the benchmark may write only
// inside its checkout. The path is relative, which keeps the socket's
// path short. restore removes the directory and puts TMPDIR back.
func checkoutTmp() (restore func(), err error) {
	dir, err := os.MkdirTemp(".", ".bench_tmp")
	if err != nil {
		return nil, err
	}
	old, had := os.LookupEnv("TMPDIR")
	restore = func() {
		if had {
			os.Setenv("TMPDIR", old)
		} else {
			os.Unsetenv("TMPDIR")
		}
		os.RemoveAll(dir)
	}
	if err := os.Setenv("TMPDIR", dir); err != nil {
		restore()
		return nil, err
	}
	return restore, nil
}

func setupDistCoarse(cfg config) (*instance, error) {
	params := rts.KernelParams{}
	params.SetInt("n", 16384)
	params.SetInt("work", 50)
	w := &distCoarse{
		// Only the graph's shape is used; the "array" kernel sizes the
		// operators, and it takes no seed.
		g:       workload.Psirrfan(workload.Config{N: 16, Seed: cfg.seed}).SplitGraph,
		binding: rts.NamedBinding("array", params),
		p:       cfg.p,
	}
	bound, err := rts.Bind(w.g, w.binding)
	if err != nil {
		return nil, err
	}
	if _, err := (native.Backend{}).Run(w.g, bound, rts.RunOpts{Processors: 1, Mode: rts.ModeSplit}); err != nil {
		return nil, err
	}
	w.want, _ = bound.Digest()
	if cfg.corrupt {
		w.want = "corrupt"
	}
	restoreTmp, err := checkoutTmp()
	if err != nil {
		return nil, err
	}
	return &instance{
		clients: 1,
		op: func(tr *tracer, _ int) (time.Duration, error) {
			root := tr.begin("op", -1)
			defer tr.end(root)
			_, lat, err := w.run(tr, root, tr != nil, dist.Backend{}, "dist.Run", w.p)
			return lat, err
		},
		baseline: func() (time.Duration, error) {
			_, lat, err := w.run(nil, -1, false, native.Backend{}, "native.Run", 1)
			return lat, err
		},
		layers: w.layers,
		close:  restoreTmp,
	}, nil
}

// run binds the kernel afresh (every execution starts from zeroed
// arrays), runs the graph on be and compares the digest.
func (w *distCoarse) run(tr *tracer, parent int, sink bool, be rts.Backend, spanName string, workers int) (trace.Result, time.Duration, error) {
	opts := rts.RunOpts{Processors: workers, Mode: rts.ModeSplit}
	var col obs.Collector
	if sink {
		opts.Sink = &col
	}
	t0 := time.Now()
	s := tr.begin("rts.Bind", parent)
	bound, err := rts.Bind(w.g, w.binding)
	tr.end(s)
	if err != nil {
		return trace.Result{}, time.Since(t0), err
	}
	s = tr.begin(spanName, parent)
	res, err := be.Run(w.g, bound, opts)
	tr.end(s)
	lat := time.Since(t0)
	tr.countEvents(col.Trace)
	if err != nil {
		return res, lat, err
	}
	if got, _ := bound.Digest(); got != w.want {
		return res, lat, fmt.Errorf("%s: digest %s, want %s", be.Name(), got, w.want)
	}
	return res, lat, nil
}

// layers splits a dist run into the coordinator's makespan and what
// surrounds it (fork, handshake, sign-off), and measures the same graph
// and kernel on native at P and at one worker.
func (w *distCoarse) layers(tr *tracer, budget time.Duration, m metrics) error {
	var wall, makespan, spawn, comm, bytes, msgs, chunks, nat, seq []float64
	err := callers(1, budget, func() error {
		root := tr.begin("dist.run_ms", -1)
		res, lat, err := w.run(tr, root, false, dist.Backend{}, "dist.Run", w.p)
		tr.end(root)
		if err != nil {
			return err
		}
		wall = append(wall, ms(lat))
		makespan = append(makespan, res.Makespan*1e3)
		spawn = append(spawn, ms(lat)-res.Makespan*1e3)
		comm = append(comm, res.Comm*1e3)
		bytes = append(bytes, float64(res.CommBytes))
		msgs = append(msgs, float64(res.Messages))
		chunks = append(chunks, float64(res.Chunks))
		for _, c := range []struct {
			name    string
			workers int
			into    *[]float64
		}{{"dist.native_ms", w.p, &nat}, {"dist.seq_ms", 1, &seq}} {
			root := tr.begin(c.name, -1)
			_, lat, err := w.run(tr, root, false, native.Backend{}, "native.Run", c.workers)
			tr.end(root)
			if err != nil {
				return err
			}
			*c.into = append(*c.into, ms(lat))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("dist.run_ms", median(wall))
	m.set("dist.makespan_ms", median(makespan))
	m.set("dist.spawn_ms", median(spawn))
	m.set("dist.comm_ms", median(comm))
	m.set("dist.comm_bytes", median(bytes))
	m.set("dist.messages", median(msgs))
	m.set("dist.chunks", median(chunks))
	m.set("dist.native_ms", median(nat))
	m.set("dist.seq_ms", median(seq))
	m.set("dist.speedup_vs_seq", median(seq)/median(wall))
	return nil
}
