package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// processStart is as close to process start as the program can see:
// the first set-up is timed from here.
var processStart = time.Now()

// Every run has the same shape, so that two runs can be compared.
const (
	// warmup is run unrecorded, at the workload's own concurrency, before
	// anything is timed: after an idle period the second vCPU of the
	// development machine delivers no parallelism for 1.2 to 1.5 s.
	warmup = 3 * time.Second
	// episodes is the number of set-ups a run measures, each followed by
	// its share of the window.
	episodes = 5
)

// config is what one run of one workload is given. Only tests set warmup
// and episodes to anything but the constants above.
type config struct {
	seed     uint64
	p        int
	seconds  time.Duration // the timed window
	warmup   time.Duration // unrecorded, at the workload's own concurrency
	episodes int           // set-ups, each with its share of the window
	// corrupt spoils the workload's expected result, so every op must
	// fail verification. Tests use it to show the checks are live.
	corrupt bool
}

// workloadDef is one row of the workloads table in BENCHMARK.json.
type workloadDef struct {
	name  string
	why   string
	setup func(cfg config) (*instance, error)
}

// instance is a set-up workload: inputs generated, reference results
// computed, engines started.
type instance struct {
	// clients is the number of callers in the closed loop.
	clients int
	// op runs one op for one caller and verifies its output. It returns
	// the caller-observed latency of the public calls alone; anything
	// else it does (resetting inputs, checking outputs) is untimed. With
	// a tracer it records a span per call into a layer and, where the
	// engine takes one, passes an event sink.
	op func(tr *tracer, client int) (time.Duration, error)
	// baseline, when the workload has one, runs the same work on one
	// in-process native worker with the sequential graph.
	baseline func() (time.Duration, error)
	// layers measures this workload's layers from outside for about
	// budget and stores the per-layer metrics.
	layers func(tr *tracer, budget time.Duration, m metrics) error
	// endToEnd stores end-to-end metrics only this workload defines.
	endToEnd func(m metrics)
	// finish runs the checks that are made once, after the window.
	finish func() error
	close  func()
}

// windowResult is what one closed-loop window measured.
type windowResult struct {
	lat       []time.Duration // latencies of verified ops
	base      []time.Duration // latencies of interleaved baseline ops
	attempted int             // verified ops plus failed ones
	failed    int             // ops, baseline ops included, that failed
	firstErr  error
	// seconds is the window's length, start to last completion, less the
	// time callers spent outside timed ops (baseline ops, untimed
	// checks).
	seconds float64
}

// minSetupSeconds is the least total set-up time behind setup_s, and
// minSetupBatch the least behind each sample after the run's own six.
const (
	minSetupSeconds = 1.0
	minSetupBatch   = 50 * time.Millisecond
)

// baselineEvery interleaves one baseline op per four timed ops.
const baselineEvery = 5

// window runs the closed loop for d: every caller sends its next op
// when the previous one has returned.
func window(inst *instance, tr *tracer, d time.Duration) windowResult {
	var (
		mu  sync.Mutex
		res windowResult
		wg  sync.WaitGroup
	)
	var untimed time.Duration
	start := time.Now()
	deadline := start.Add(d)
	last := start
	for c := 0; c < inst.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local windowResult
			var timed time.Duration
			for i := 1; time.Now().Before(deadline); i++ {
				var lat time.Duration
				var err error
				into := &local.lat
				if inst.baseline != nil && i%baselineEvery == 0 {
					into = &local.base
					if lat, err = inst.baseline(); err != nil {
						err = fmt.Errorf("baseline op: %w", err)
					}
				} else {
					lat, err = inst.op(tr, c)
					timed += lat
				}
				if err != nil {
					local.failed++
					if local.firstErr == nil {
						local.firstErr = err
					}
					continue
				}
				*into = append(*into, lat)
			}
			end := time.Now()
			mu.Lock()
			defer mu.Unlock()
			res.lat = append(res.lat, local.lat...)
			res.base = append(res.base, local.base...)
			res.attempted += len(local.lat) + local.failed
			res.failed += local.failed
			if res.firstErr == nil {
				res.firstErr = local.firstErr
			}
			untimed += end.Sub(start) - timed
			if end.After(last) {
				last = end
			}
		}(c)
	}
	wg.Wait()
	res.seconds = (last.Sub(start) - untimed/time.Duration(inst.clients)).Seconds()
	return res
}

// callers runs fn from n goroutines, each at least once and then until d
// has passed, and returns the first error. The layer probes are built on
// it.
func callers(n int, d time.Duration, fn func() error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	deadline := time.Now().Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ok := true; ok; ok = time.Now().Before(deadline) {
				if errs[c] = fn(); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// report is one run of one workload.
type report struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Env       envBlock `json:"env"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Samples is the number of latencies behind op_p50_ms and op_p90_ms,
	// BaselineSamples the number behind speedup_vs_seq.
	Samples         int     `json:"samples"`
	BaselineSamples int     `json:"baseline_samples,omitempty"`
	Error           string  `json:"error,omitempty"`
	Metrics         metrics `json:"metrics"`
}

func (r *report) correct() bool { return r.Failed == 0 && r.Error == "" }

// measure is the untraced run, from which every end-to-end metric
// comes. After one instance has been set up and run for the warm-up,
// which is for the machine, the run is cut into episodes: each sets the
// workload up anew, warms the fresh instance briefly and measures a
// window of seconds/episodes, and the run reports the median over the
// episodes. An episode that the machine disturbed, or whose set-up fell
// out unluckily (page placement, which goroutine landed where), then
// moves one value of several and not the result. Equal episodes also
// give every window the same history: the daemon slows as its job
// registry grows, so one long window would measure its own length.
func measure(w workloadDef, cfg config, env envBlock) (*report, error) {
	rep := &report{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Env: env, Metrics: metrics{}}
	var setup, rss, rate, lat, base []float64
	setupTotal := 0.0
	// setUp times one set-up, from process start for the first.
	setUp := func() (*instance, error) {
		t0 := time.Now()
		if len(setup) == 0 {
			t0 = processStart
		}
		inst, err := w.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d := time.Since(t0).Seconds()
		setup = append(setup, d)
		setupTotal += d
		return inst, nil
	}

	inst, err := setUp()
	if err != nil {
		return nil, err
	}
	window(inst, nil, cfg.warmup)
	if inst.endToEnd != nil {
		inst.endToEnd(rep.Metrics)
	}
	inst.close()

	var errs []error
	for i := 0; i < cfg.episodes; i++ {
		// Free the last instance's memory for this one to reuse; handing
		// it back to the system would make this one fault it in again,
		// which on a virtual machine is slow and uneven.
		runtime.GC()
		resetPeakRSS()
		inst, err := setUp()
		if err != nil {
			return nil, err
		}
		window(inst, nil, cfg.warmup/10)
		res := window(inst, nil, cfg.seconds/time.Duration(cfg.episodes))
		errs = append(errs, res.firstErr)
		if inst.finish != nil {
			errs = append(errs, inst.finish())
		}
		peak, err := peakRSSMiB(cfg.p)
		inst.close()
		if err != nil {
			return nil, err
		}
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		rss = append(rss, peak)
		if len(res.lat) > 0 {
			rate = append(rate, float64(len(res.lat))/res.seconds)
		}
		lat = append(lat, msAll(res.lat)...)
		base = append(base, msAll(res.base)...)
	}
	if err := errors.Join(errs...); err != nil {
		rep.Error = err.Error()
	}
	// A set-up of a few milliseconds is at the mercy of late wake-ups
	// (on the development machine four in ten of serve-hot's 4 ms
	// set-ups wait 4, 8 or 12 ms more for a sleeping vCPU), and a median
	// that sits between the two kinds moves by a third from run to run.
	// So a cheap set-up is repeated until the samples add up to
	// minSetupSeconds, and each further sample is the mean over a batch of
	// set-ups that take minSetupBatch together.
	for setupTotal < minSetupSeconds {
		var sum time.Duration
		n := 0
		for ; sum < minSetupBatch; n++ {
			runtime.GC()
			t0 := time.Now()
			inst, err := w.setup(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
			sum += time.Since(t0)
			inst.close()
		}
		setup = append(setup, sum.Seconds()/float64(n))
		setupTotal += sum.Seconds()
	}
	if rep.Attempted == 0 {
		return nil, fmt.Errorf("%s: no op finished within %v", w.name, cfg.seconds)
	}
	rep.Samples, rep.BaselineSamples = len(lat), len(base)
	m := rep.Metrics
	m.set("setup_s", median(setup))
	m.set("peak_rss_mb", median(rss))
	m.set("failed_share", float64(rep.Failed)/float64(rep.Attempted))
	if len(lat) > 0 {
		m.set("ops_per_s", median(rate))
		m.set("op_p50_ms", median(lat))
		m.set("op_p90_ms", quantile(lat, 0.9))
		if len(base) > 0 {
			m.set("speedup_vs_seq", median(base)/median(lat))
		}
	}
	return rep, nil
}

// traced is the traced run. The driver's contract for BENCHMARK.json
// says of the last line that "with --trace 1 the metrics are every
// per_layer metric", whichever workload is selected, so every workload is
// set up and warmed up in turn and its layers are measured from outside:
// the selected one after the full warm-up and for a sixth of the window,
// the others briefly. Before its layers the selected workload runs a
// sixth of the window untraced and a sixth traced, which gives the
// tracing overhead.
func traced(selected workloadDef, cfg config, env envBlock, traceOut string, stderr io.Writer) (*report, error) {
	tr := newTracer()
	rep := &report{
		Workload: selected.name, Traced: true, Seed: cfg.seed,
		Seconds: cfg.seconds.Seconds(), Env: env, Metrics: metrics{},
	}
	for _, w := range workloads {
		inst, err := w.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		// The others warm up for a third as long: the machine is awake
		// by then, and a fresh instance needs little.
		budget, warm := cfg.seconds/30, cfg.warmup/3
		if w.name == selected.name {
			budget, warm = cfg.seconds/6, cfg.warmup
		}
		window(inst, nil, warm)
		if w.name == selected.name {
			off := window(inst, nil, cfg.seconds/6)
			on := window(inst, tr, cfg.seconds/6)
			rep.Attempted = off.attempted + on.attempted
			rep.Failed = off.failed + on.failed
			rep.Samples = len(on.lat)
			if err := errors.Join(off.firstErr, on.firstErr); err != nil {
				rep.Error = err.Error()
			}
			if len(off.lat) == 0 || len(on.lat) == 0 {
				inst.close()
				return nil, fmt.Errorf("%s: no op passed within %v: %w", w.name, cfg.seconds/6, errors.Join(off.firstErr, on.firstErr))
			}
			offRate := float64(len(off.lat)) / off.seconds
			onRate := float64(len(on.lat)) / on.seconds
			rep.Metrics.set("obs.trace_overhead_share", 1-onRate/offRate)
			rep.Metrics.set("obs.events_per_run", float64(tr.events.Load())/float64(len(on.lat)))
		}
		err = inst.layers(tr, budget, rep.Metrics)
		inst.close()
		if err != nil {
			return nil, fmt.Errorf("%s: layers: %w", w.name, err)
		}
		runtime.GC()
	}
	if traceOut != "" {
		counts := map[string]float64{}
		for name, v := range rep.Metrics {
			counts[name] = v.Value
		}
		if err := tr.write(traceOut, counts); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	printSelfTimes(tr, stderr)
	return rep, nil
}
