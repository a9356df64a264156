// Command orchrun executes a Delirium dataflow graph (as produced by
// orchc) under one of the three runtime configurations of the paper's
// evaluation: static, TAPER, or TAPER with the split-exposed
// concurrency — on any registered execution backend:
//
//   - -backend sim (default): the discrete-event Ncube-2-style
//     simulator; node task times are drawn from a log-normal with
//     coefficient of variation -cv and charged to the simulated clock.
//   - -backend native: the goroutine runtime of internal/native; the
//     same log-normal draws are converted to real CPU spinning
//     (-unitwork floating-point iterations per time unit), and the
//     reported makespan/efficiency are wall-clock measurements.
//   - -backend dist: the distributed runtime of internal/dist; -p
//     worker processes are forked from this binary and driven over
//     Unix-domain sockets, and the report additionally carries real
//     per-message communication time. The flag is the bare name,
//     -backend dist; no backend takes options.
//
// Graph nodes are bound to kernels resolved by name from the process
// registry: "lognormal" (modeled timings) on the simulator, "spin"
// (real CPU spinning) on the measured backends, or "array" (real
// array kernels over a memory image, with a result digest) under
// -kernel. A node's task count comes from its tasks= annotation (a
// symbolic trip count such as "n", resolved with the -n flag) when
// present, else from -tasks.
//
// Graphs containing expandable nodes (kind=exp, e.g.
// examples/vortex.graph) are bound to the "nested" workload kernels
// instead: the expansion rules the graph names (rule=dc divide-and-
// conquer, rule=vortex adaptive refinement) materialize sub-graphs at
// execution time, -n sets the problem size, and a result digest is
// printed — bitwise identical across backends, modes and worker
// counts, and to the same graph statically unrolled. The dist backend
// refuses expandable graphs (it cannot ship not-yet-materialized
// sub-graphs to worker processes).
//
// Profiling: -cpuprofile and -memprofile write runtime/pprof profiles
// of the run. Per-operator time is in the trace (-gantt, -trace) on
// every backend.
//
// Tracing: -trace out.json records the run's per-chunk spans, steals,
// TAPER decisions, allocation estimates and pipeline-gate advances, and
// writes them as a Chrome trace-event file loadable in Perfetto or
// chrome://tracing (workers as tracks, steals as flow arrows, TAPER
// grain as counter tracks). A .csv suffix writes the raw event rows
// instead. -gantt prints a per-operator terminal summary of the same
// trace. Both require a single -mode.
//
// Fault injection: -fault runs the graph under a deterministic fault
// plan (internal/fault syntax), e.g.
//
//	orchrun -backend native -mode taper -fault crash:0@1 g.graph
//
// crashes worker 0 at its second chunk boundary; the run survives on
// the remaining workers, and -trace/-gantt show the fault, retry and
// reallocation events the recovery leaves behind. A stall:W@C:SECS
// action only delays worker W, on every backend. On the dist backend
// a crash is a literal SIGKILL of the worker process. delay:/loss:
// perturb the simulator's message cost model (the measured backends
// have no modelled messages and ignore them).
//
// TAPER's confidence width is ω = √(2·ln(p+1)) on every backend, fixed
// by the worker count; no flag sets it.
//
// Usage:
//
//	orchrun [-p procs] [-backend sim|native|dist] [-mode static|taper|split|all]
//	        [-tasks n] [-cv x] [-seed s] [-unitwork w] [-fault plan]
//	        [-trace out.json|out.csv] [-gantt]
//	        [-cpuprofile f] [-memprofile f] file.graph
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"orchestra/internal/cliflag"
	"orchestra/internal/delirium"
	"orchestra/internal/dist"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
	_ "orchestra/internal/workload" // registers the "nested" kernels
)

func main() {
	// A dist coordinator forks this same binary as its workers;
	// MaybeWorker diverts those forks into the worker loop before any
	// flag parsing happens.
	dist.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so tests can drive
// the full flag-to-execution path and assert on exit codes.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("orchrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := fs.Int("p", 0, "number of processors (sim; 0 = 64), worker goroutines (native; 0 = GOMAXPROCS), or worker processes (dist; 0 = min(GOMAXPROCS, 4))")
	backend := cliflag.Backend(fs, "backend", "sim", "execution backend: sim, native or dist")
	mode := cliflag.Modes(fs, "mode", "split", "execution mode: static, taper, split, or all")
	tasks := fs.Int("tasks", 2048, "tasks per operator without a tasks= annotation")
	nParam := fs.Int("n", 2048, "value of the symbolic problem size n in tasks= annotations")
	cv := fs.Float64("cv", 1.0, "coefficient of variation of task times")
	seed := fs.Uint64("seed", 1, "workload seed")
	unitWork := fs.Int("unitwork", 4000, "measured backends: floating-point iterations per task-time unit")
	kernel := fs.Bool("kernel", false, "bind real array kernels instead of synthetic timings and print the result digest (see -kernelwork)")
	kernelWork := fs.Int("kernelwork", 1, "with -kernel: function-evaluation rounds per task")
	traceOut := fs.String("trace", "", "write an execution trace to this file (Chrome trace-event JSON; CSV if the name ends in .csv)")
	gantt := fs.Bool("gantt", false, "print a per-operator Gantt/summary of the execution trace")
	noChain := fs.Bool("nochain", false, "native split mode: disable cache chaining (annotated edges fall back to the prefix gate)")
	faultFlag := cliflag.Fault(fs, "fault", "inject a fault plan, e.g. 'crash:0@1,stall:2@0:0.01,delay:0.5' (see internal/fault)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: orchrun [flags] file.graph")
		return 2
	}
	// A negative size is a usage error, as the daemon refuses it; -p 0
	// asks the backend for its default.
	for _, c := range []struct {
		name string
		v    float64
	}{{"p", float64(*p)}, {"tasks", float64(*tasks)}, {"n", float64(*nParam)}, {"cv", *cv},
		{"unitwork", float64(*unitWork)}, {"kernelwork", float64(*kernelWork)}} {
		if !(c.v >= 0) {
			fmt.Fprintf(stderr, "orchrun: -%s %v: want a non-negative value\n", c.name, c.v)
			return 2
		}
	}
	modes := mode.Modes()
	tracing := *traceOut != "" || *gantt
	if tracing && len(modes) != 1 {
		fmt.Fprintln(stderr, "orchrun: -trace/-gantt need a single -mode, not a list")
		return 2
	}
	be, err := backend.New(*p)
	if err != nil {
		fmt.Fprintln(stderr, "orchrun:", err)
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "orchrun:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "orchrun:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	text, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "orchrun:", err)
		return 1
	}
	g, err := delirium.Decode(string(text))
	if err != nil {
		fmt.Fprintln(stderr, "orchrun:", err)
		return 1
	}

	// Kernel selection, as a serializable name + parameters: the "array"
	// kernels under -kernel, real CPU spinning on the measured backends,
	// modeled log-normal costs on the simulator. The dist backend ships
	// this binding to its worker processes verbatim. Graphs with
	// expandable (kind=exp) nodes route to the "nested" workload
	// kernels regardless of the other flags: only they supply the
	// expansion rules (rule=dc, rule=vortex) such nodes need.
	params := rts.KernelParams{}
	var kernelName string
	switch {
	case g.HasExpansions():
		kernelName = "nested"
		params.SetInt("n", *nParam)
	case *kernel:
		kernelName = "array"
		params.SetInt("n", *nParam)
		params.SetInt("work", *kernelWork)
	case backend.Measured():
		kernelName = "spin"
		params.SetInt("unitwork", *unitWork)
	default:
		kernelName = "lognormal"
	}
	if !*kernel && kernelName != "nested" {
		params.SetInt("tasks", *tasks)
		params.SetInt("n", *nParam)
		params.SetFloat("cv", *cv)
		params.SetUint64("seed", *seed)
	}
	binding := rts.NamedBinding(kernelName, params)

	if st, err := g.Summarize(); err == nil {
		fmt.Fprintln(stdout, "graph:", st)
	}
	unit := ""
	if backend.Measured() {
		unit = " s"
	}
	plan := faultFlag.Plan()

	for _, m := range modes {
		// Rebind per execution: array kernels must start every run from
		// zeroed arrays, and re-instantiating the synthetic kernels is
		// cheap.
		bound, err := rts.Bind(g, binding)
		if err != nil {
			// The graph text, not a flag, is at fault: a runtime error.
			fmt.Fprintln(stderr, "orchrun:", err)
			return 1
		}
		opts := rts.RunOpts{Processors: *p, Mode: m, Fault: plan}
		if *noChain {
			opts.Chain = rts.ChainOff
		}
		var col obs.Collector
		if tracing {
			opts.Sink = &col
		}
		r, err := be.Run(g, bound, opts)
		if err != nil {
			fmt.Fprintln(stderr, "orchrun:", err)
			return 1
		}
		chained := ""
		if r.ChainHits+r.ChainSpills+r.ChainFallbacks > 0 {
			chained = fmt.Sprintf(", chained %d", r.ChainHits)
			if r.ChainSpills+r.ChainFallbacks > 0 {
				chained += fmt.Sprintf(" (spilled %d)", r.ChainSpills+r.ChainFallbacks)
			}
		}
		comm := ""
		if r.Comm > 0 {
			comm = fmt.Sprintf(", comm %.4g s/%d B", r.Comm, r.CommBytes)
		}
		fmt.Fprintf(stdout, "%-12s makespan %10.4g%s  speedup %8.1f  efficiency %5.1f%%  (chunks %d, steals %d, msgs %d%s%s)\n",
			m, r.Makespan, unit, r.Speedup(), 100*r.Efficiency(), r.Chunks, r.Steals, r.Messages, chained, comm)
		if d, ok := bound.Digest(); ok {
			fmt.Fprintf(stdout, "digest %s\n", d)
		}
		if tracing {
			if err := writeTrace(*traceOut, *gantt, col.Trace, stdout); err != nil {
				fmt.Fprintln(stderr, "orchrun:", err)
				return 1
			}
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(stderr, "orchrun:", err)
			return 1
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "orchrun:", err)
			return 1
		}
	}
	return 0
}

// writeTrace delivers a collected trace: a Chrome trace-event file (or
// CSV for .csv paths) when path is non-empty, and/or the terminal
// summary when gantt is set.
func writeTrace(path string, gantt bool, t *obs.Trace, stdout io.Writer) error {
	if t == nil {
		return fmt.Errorf("no trace was collected")
	}
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, ".csv") {
			err = obs.WriteCSV(f, t)
		} else {
			err = obs.WriteChromeTrace(f, t)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if gantt {
		fmt.Fprint(stdout, obs.Summary(t))
	}
	return nil
}
