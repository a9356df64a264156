// Command bench is the repository's benchmark: six workloads, each
// measured end to end from outside the program and, in a traced run,
// layer by layer. BENCHMARK.json at the repository root names the
// metrics and workloads; README.md in this directory explains them.
//
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//
// prints one workload's result; the last line of standard output is the
// JSON object BENCHMARK.json's driver reads. Without -workload every
// workload runs, each in a process of its own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"orchestra/internal/dist"
)

var workloads = []workloadDef{
	{"native-coarse", "Psirrfan split graph on P native workers vs its sequential graph on one, same spun work: load balance decides, per-chunk dispatch cost does not", setupNativeCoarse},
	{"native-memchain", "five streaming stages over 160 MiB on the native engine: memory traffic, the prefix gate and chunk chaining do the work, arithmetic is negligible", setupNativeMemchain},
	{"dist-coarse", "the same split graph on P forked worker processes per run: frame encode/syscall/decode, process spawn and coordinator gating dominate", setupDistCoarse},
	{"serve-hot", "P closed-loop HTTP clients submitting the tiny figure-1 job to the daemon, every op a graph-cache hit: HTTP, admission, bind, pool lease and digest are the cost", setupServeHot},
	{"compile-cold", "parse, analysis, split and lowering of a 48-program corpus in three size classes, no engine: the bypass for every engine optimisation", setupCompileCold},
	{"sim-fig6", "the paper's Figure 6 and Table 1 cells (Psirrfan 4096, climate 3200, 512 processors) on the discrete-event simulator: event heap, DAG executor and policies", setupSimFig6},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	// A dist coordinator re-executes this binary for its workers.
	dist.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: tests call it too.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs all, one process each")
	seed := fs.Uint64("seed", 7, "seed of every generated input")
	seconds := fs.Float64("seconds", 15, "length of the timed window")
	trace := fs.Int("trace", 0, "1 for the traced run: per-layer metrics and tracing overhead")
	traceOut := fs.String("trace-out", "", "with -trace 1, file to write the spans and counts to")
	forceP := fs.Int("p", 0, "workers, clients and pool size; 0 is min(NumCPU, 4)")
	allowOver := fs.Bool("allow-oversubscribed", false, "run although -p exceeds the usable CPUs")
	repeat := fs.Bool("check-repeat", false, "run every workload twice and compare the pairs with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	p, over, err := resolveP(*forceP, *allowOver)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *name == "" {
		childArgs := []string{
			"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*trace),
			"-p", fmt.Sprint(*forceP), fmt.Sprintf("-allow-oversubscribed=%v", *allowOver),
		}
		return runAll(childArgs, *repeat, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{
		seed:     *seed,
		p:        p,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		warmup:   warmup,
		episodes: episodes,
	}
	return runWorkload(w, cfg, newEnv(p, over), *trace == 1, *traceOut, stdout, stderr)
}

// runWorkload measures one workload, untraced or traced, and prints the
// result. Tests call it with a shorter config.
func runWorkload(w workloadDef, cfg config, env envBlock, trace bool, traceOut string, stdout, stderr io.Writer) int {
	var rep *report
	var err error
	if trace {
		rep, err = traced(w, cfg, env, traceOut, stderr)
	} else {
		rep, err = measure(w, cfg, env)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return emit(rep, stdout, stderr)
}

// result is the object the driver reads from the last line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// contractMetrics keeps the metrics BENCHMARK.json lists: the bounded
// end-to-end ones of an untraced run, every per-layer one of a traced
// run.
func contractMetrics(rep *report) metrics {
	out := metrics{}
	if rep.Traced {
		for _, d := range perLayer {
			if v, ok := rep.Metrics[d.name]; ok {
				out[d.name] = v
			}
		}
		return out
	}
	for _, d := range endToEnd {
		if v, ok := rep.Metrics[d.name]; ok && !d.partial {
			out[d.name] = v
		}
	}
	return out
}

// emit prints the human table on stderr and two JSON lines on stdout:
// the full report, then the driver's result. It returns the exit code.
func emit(rep *report, stdout, stderr io.Writer) int {
	printTable(rep, stderr)
	full, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	last, err := json.Marshal(result{rep.correct(), rep.Attempted, rep.Failed, contractMetrics(rep)})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", full, last)
	if !rep.correct() {
		fmt.Fprintf(stderr, "bench: %s: %d of %d ops failed: %s\n", rep.Workload, rep.Failed, rep.Attempted, rep.Error)
		return 1
	}
	return 0
}

func printTable(rep *report, w io.Writer) {
	e := rep.Env
	fmt.Fprintf(w, "%s  seed=%d seconds=%g traced=%v  ops=%d failed=%d samples=%d baseline_samples=%d\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Traced, rep.Attempted, rep.Failed, rep.Samples, rep.BaselineSamples)
	fmt.Fprintf(w, "env  NumCPU=%d GOMAXPROCS=%d P=%d %s commit=%s kernel=%s LLC=%dB memchain=%dB oversubscribed=%v\n",
		e.NumCPU, e.GOMAXPROCS, e.P, e.GoVersion, e.Commit, e.Kernel, e.LLCBytes, e.MemChainBytes, e.Oversubscribed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range rep.Metrics.names() {
		v := rep.Metrics[name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", name, v.Value, v.Unit)
	}
	tw.Flush()
}

// printSelfTimes reports, per span name, the time spent in the span
// itself and not in its children.
func printSelfTimes(tr *tracer, w io.Writer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Fprintln(w, "self time by span:")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range names {
		fmt.Fprintf(tw, "  %s\t%.3f ms\n", name, ms(self[name]))
	}
	tw.Flush()
}
