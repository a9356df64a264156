// Command orchbench regenerates the paper's evaluation (§5) on the
// simulated machine: the Figure 6 processor sweep for Psirrfan, the
// in-text climate-model measurements (Table 1), the processor-doubling
// claim (Table 2), the design-choice ablations DESIGN.md lists, and
// one extension (loop-scheduler policies). The simulator is
// deterministic, so the same flags print the same bytes.
// Wall-clock numbers come from `go run ./bench` (bench/README.md).
//
// Usage:
//
//	orchbench [-exp fig6|table1|table2|ablations|policies|all] [-n size] [-seed s]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"orchestra/internal/experiment"
	"orchestra/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("orchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: fig6, table1, table2, ablations, policies, or all")
	n := fs.Int("n", 0, "problem size override (0 = per-experiment default)")
	seed := fs.Uint64("seed", 7, "workload seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *exp {
	case "all", "fig6", "table1", "table2", "ablations", "policies":
	default:
		fmt.Fprintf(stderr, "orchbench: unknown experiment %q (want fig6, table1, table2, ablations, policies or all)\n", *exp)
		return 2
	}
	on := func(e string) bool { return *exp == "all" || *exp == e }

	size := func(def int) int {
		if *n > 0 {
			return *n
		}
		return def
	}

	if on("fig6") {
		fmt.Fprintln(stdout, "=== Figure 6: Psirrfan performance (speedup vs processors) ===")
		fmt.Fprintln(stdout, "paper: static flattens, TAPER sags past 512, TAPER+split sustains")
		fmt.Fprintln(stdout, ">80% efficiency through 1024 processors")
		fmt.Fprintln(stdout)
		series := experiment.Figure6(size(4096), *seed,
			[]int{128, 256, 384, 512, 640, 768, 896, 1024, 1152, 1280})
		fmt.Fprint(stdout, trace.Table("Psirrfan", "procs", series, trace.Result.Speedup, "speedup"))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, trace.Table("Psirrfan", "procs", series,
			func(r trace.Result) float64 { return 100 * r.Efficiency() }, "efficiency %"))
		fmt.Fprintln(stdout)
	}

	if on("table1") {
		fmt.Fprintln(stdout, "=== Table 1: UCLA climate model, ~3200 grid cells ===")
		fmt.Fprint(stdout, experiment.FormatTable1(experiment.Table1(size(3200), *seed)))
		fmt.Fprintln(stdout)
	}

	if on("table2") {
		fmt.Fprintln(stdout, "=== Table 2: doubling processors with split (paper: 5-15% loss) ===")
		fmt.Fprint(stdout, experiment.FormatTable2(experiment.Table2(size(3200), *seed, 512)))
		fmt.Fprintln(stdout)
	}

	if on("policies") {
		fmt.Fprintln(stdout, "=== Loop schedulers on the central queue, one irregular operation (psirrfan update, cold, p=512) ===")
		fmt.Fprint(stdout, experiment.FormatPolicies(experiment.Policies(size(4096), 512, *seed)))
		fmt.Fprintln(stdout)
	}

	if on("ablations") {
		fmt.Fprintln(stdout, "=== Ablations ===")
		w, wo := experiment.AblationCostFunction(size(4096), 256, *seed)
		fmt.Fprintf(stdout, "cost function, warm vs cold hints (vortex velocity, p=256): warm=%.1f cold=%.1f (%.1f%% better)\n",
			w.Makespan, wo.Makespan, 100*(wo.Makespan-w.Makespan)/wo.Makespan)
		it, na := experiment.AblationAllocation(size(3200), 512, *seed)
		fmt.Fprintf(stdout, "allocation (climate cloud+radI, p=512): iterative=%.1f naive-half=%.1f (%.1f%% better)\n",
			it.Makespan, na.Makespan, 100*(na.Makespan-it.Makespan)/na.Makespan)
		d, c := experiment.AblationDistributed(size(4096), 512, *seed)
		fmt.Fprintf(stdout, "distributed vs central (psirrfan update, p=512): distributed=%.1f central=%.1f; messages %d vs %d\n",
			d.Makespan, c.Makespan, d.Messages, c.Messages)
		fmt.Fprintln(stdout, "allocation max_count sweep (climate cloud+radI, p=512):")
		for _, r := range experiment.AblationMaxCount(size(3200), 512, *seed, []int{0, 1, 2, 4, 8}) {
			fmt.Fprintf(stdout, "  %-12s makespan=%.1f\n", r.Name, r.Makespan)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
