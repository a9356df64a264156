// Package orchestra_bench regenerates every table and figure of the
// paper's evaluation (§5) as Go benchmarks, plus the ablations DESIGN.md
// calls out. Each benchmark prints the regenerated rows/series through
// b.Log and reports domain metrics (simulated speedup and efficiency)
// via b.ReportMetric, so `go test -bench . -benchmem` reproduces the
// whole evaluation.
//
// Mapping:
//
//	BenchmarkFig6Psirrfan*     — Figure 6 (speedup vs processors, three configurations)
//	BenchmarkTable1Climate*    — in-text climate measurements (512/1024, ±split)
//	BenchmarkTable2Doubling    — in-text doubling claim (5–15% efficiency loss)
//	BenchmarkAblation*         — design-choice ablations
//	BenchmarkNativeBackend     — wall-clock execution on the goroutine backend
//	BenchmarkCompiler*         — compiler-side throughput (analysis + split)
//
// The simulator's own cost per chunk (events/chunk, ms per cell) is
// BenchmarkSimDAG in internal/rts, where a test can read the event
// count without the package exporting it.
package orchestra_bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"orchestra/internal/analysis"
	"orchestra/internal/compile"
	"orchestra/internal/experiment"
	"orchestra/internal/machine"
	"orchestra/internal/native"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/source"
	"orchestra/internal/split"
	"orchestra/internal/trace"
	"orchestra/internal/workload"
)

const (
	benchSeed = 7
	fig6N     = 4096
	climateN  = 3200 // the paper: "about 3200 latitude-longitude grid cells"
)

// reportRun reports the simulated metrics of one execution.
func reportRun(b *testing.B, r trace.Result) {
	b.ReportMetric(r.Speedup(), "speedup")
	b.ReportMetric(100*r.Efficiency(), "eff%")
}

// benchMode runs one Figure 6 configuration at one processor count.
func benchMode(b *testing.B, p int, mode rts.Mode) {
	var last trace.Result
	for i := 0; i < b.N; i++ {
		app := workload.Psirrfan(workload.Config{N: fig6N, Seed: benchSeed})
		last = experiment.RunApp(app, p, mode)
	}
	reportRun(b, last)
}

// BenchmarkFig6Psirrfan regenerates the three curves of Figure 6 at the
// paper's processor counts.
func BenchmarkFig6Psirrfan(b *testing.B) {
	for _, mode := range []rts.Mode{rts.ModeStatic, rts.ModeTaper, rts.ModeSplit} {
		for _, p := range []int{128, 256, 512, 768, 1024, 1280} {
			b.Run(fmt.Sprintf("%s/p=%d", mode, p), func(b *testing.B) {
				benchMode(b, p, mode)
			})
		}
	}
}

// BenchmarkFig6Series prints the complete Figure 6 table once per run.
func BenchmarkFig6Series(b *testing.B) {
	var series []*trace.Series
	for i := 0; i < b.N; i++ {
		series = experiment.Figure6(fig6N, benchSeed,
			[]int{128, 256, 512, 768, 1024, 1280})
	}
	b.Log("\n" + trace.Table("Figure 6: Psirrfan", "procs", series,
		trace.Result.Speedup, "speedup"))
}

// BenchmarkTable1Climate regenerates the climate-model rows. Paper
// values: TAPER@512 87% (445), TAPER@1024 57% (581), split@1024 83%
// (850).
func BenchmarkTable1Climate(b *testing.B) {
	configs := []struct {
		name string
		p    int
		mode rts.Mode
	}{
		{"TAPER/p=512", 512, rts.ModeTaper},
		{"TAPER/p=1024", 1024, rts.ModeTaper},
		{"TAPER+split/p=1024", 1024, rts.ModeSplit},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			var last trace.Result
			for i := 0; i < b.N; i++ {
				app := workload.Climate(workload.Config{N: climateN, Seed: benchSeed})
				last = experiment.RunApp(app, c.p, c.mode)
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkTable2Doubling regenerates the doubling table: with split,
// doubling the processors loses only five to fifteen percent
// efficiency on each application.
func BenchmarkTable2Doubling(b *testing.B) {
	var rows []experiment.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiment.Table2(climateN, benchSeed, 512)
	}
	b.Log("\n" + experiment.FormatTable2(rows))
	for _, r := range rows {
		b.ReportMetric(r.LossPoints, r.App+"-loss-pts")
	}
}

// BenchmarkAblationCostFunction measures the s = μg/μc chunk scaling
// on the spatially clustered vortex velocity operation.
func BenchmarkAblationCostFunction(b *testing.B) {
	var with, without trace.Result
	for i := 0; i < b.N; i++ {
		with, without = experiment.AblationCostFunction(fig6N, 256, benchSeed)
	}
	b.ReportMetric(with.Makespan, "with-makespan")
	b.ReportMetric(without.Makespan, "without-makespan")
}

// BenchmarkAblationAllocation compares the iterative processor
// allocation against a naive half/half division.
func BenchmarkAblationAllocation(b *testing.B) {
	var iterative, naive trace.Result
	for i := 0; i < b.N; i++ {
		iterative, naive = experiment.AblationAllocation(climateN, 512, benchSeed)
	}
	b.ReportMetric(iterative.Makespan, "iterative-makespan")
	b.ReportMetric(naive.Makespan, "naive-makespan")
}

// BenchmarkAblationDistributed compares the distributed token-tree
// scheme against a centralized task queue.
func BenchmarkAblationDistributed(b *testing.B) {
	var dist, central trace.Result
	for i := 0; i < b.N; i++ {
		dist, central = experiment.AblationDistributed(fig6N, 512, benchSeed)
	}
	b.ReportMetric(dist.Makespan, "distributed-makespan")
	b.ReportMetric(central.Makespan, "central-makespan")
	b.ReportMetric(float64(dist.Messages), "distributed-msgs")
	b.ReportMetric(float64(central.Messages), "central-msgs")
}

// BenchmarkAblationMaxCount sweeps the allocation iteration bound (the
// paper: "a max_count of four has been sufficient").
func BenchmarkAblationMaxCount(b *testing.B) {
	for _, mc := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("max_count=%d", mc), func(b *testing.B) {
			var rs []trace.Result
			for i := 0; i < b.N; i++ {
				rs = experiment.AblationMaxCount(climateN, 512, benchSeed, []int{mc})
			}
			b.ReportMetric(rs[0].Makespan, "makespan")
		})
	}
}

// BenchmarkSchedulerPolicies compares the loop schedulers on one
// irregular operation (an extension beyond the paper's figures: SS,
// GSS, factoring, TAPER under the same distributed executor).
func BenchmarkSchedulerPolicies(b *testing.B) {
	app := workload.Psirrfan(workload.Config{N: fig6N, Seed: benchSeed})
	spec := app.Bind("update")
	spec.Op.Hint = nil // cold run: policies differ most without hints
	cfg := machine.DefaultConfig(512)
	procs := make([]int, 512)
	for i := range procs {
		procs[i] = i
	}
	policies := []struct {
		name    string
		factory sched.Factory
	}{
		{"SS", func() sched.Policy { return sched.SelfSched{} }},
		{"GSS", func() sched.Policy { return sched.GSS{} }},
		{"factoring", func() sched.Policy { return &sched.Factoring{} }},
		{"TAPER", func() sched.Policy { return &sched.Taper{} }},
		{"TAPER+costfn", func() sched.Policy { return &sched.Taper{UseCostFunction: true} }},
	}
	for _, pol := range policies {
		b.Run(pol.name, func(b *testing.B) {
			var last trace.Result
			for i := 0; i < b.N; i++ {
				last = sched.ExecuteDistributed(cfg, spec.Op, procs, pol.factory, obs.OpObs{})
			}
			b.ReportMetric(last.Makespan, "makespan")
			b.ReportMetric(float64(last.Chunks), "chunks")
		})
	}
}

// BenchmarkNativeBackend runs the compiled running example on the
// native goroutine backend with real array kernels — wall-clock
// execution, not simulation — comparing the three modes. The reported
// speedup/eff% are measured against the backend's own sequential-work
// accounting; on a multi-core host the adaptive modes should approach
// the core count.
func BenchmarkNativeBackend(b *testing.B) {
	out, err := compile.Compile(mustParse(b, benchProgram), compile.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	const n, work = 4000, 120
	workers := runtime.GOMAXPROCS(0)
	for _, mode := range []rts.Mode{rts.ModeStatic, rts.ModeTaper, rts.ModeSplit} {
		b.Run(fmt.Sprintf("%s/p=%d", mode, workers), func(b *testing.B) {
			var last trace.Result
			for i := 0; i < b.N; i++ {
				bind, _, err := native.ArrayKernels(out.Graph, n, work)
				if err != nil {
					b.Fatal(err)
				}
				last, err = native.Backend{}.Run(out.Graph, rts.BindClosure(bind),
					rts.RunOpts{Processors: workers, Mode: mode})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Makespan*1e3, "makespan-ms")
			b.ReportMetric(last.Speedup(), "speedup")
			b.ReportMetric(float64(last.Chunks), "chunks")
			b.ReportMetric(float64(last.Steals), "steals")
		})
	}
}

// BenchmarkHotpathSimEvents measures the simulator's steady-state event
// loop through the allocation-free AfterFn path: 64 concurrent event
// chains, one event per iteration. After the warm-up grows the arena
// and heap to their peak, the loop must report 0 allocs/op.
func BenchmarkHotpathSimEvents(b *testing.B) {
	sim := machine.NewSim(machine.DefaultConfig(64))
	const chains = 64
	left := 0
	var tick func(int)
	tick = func(j int) {
		if left > 0 {
			left--
			sim.AfterFn(0.5, tick, j)
		}
	}
	run := func(events int) {
		left = events - chains
		for j := 0; j < chains; j++ {
			sim.AfterFn(float64(j)/float64(chains), tick, j)
		}
		sim.Run()
	}
	run(10_000) // reach the steady state: arena and heap at peak size
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N + chains)
}

func mustParse(b *testing.B, text string) *source.Program {
	b.Helper()
	prog, err := source.Parse(text)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

const benchProgram = `
program sample
  integer n
  integer mask(n)
  real result(n), q(n, n), output(n, n), w(n)

  do col = 1, n where (mask(col) != 0)
    do i = 1, n
      result(i) = 0
      do j = 1, n
        result(i) = result(i) + q(j, i) * w(j)
      end do
    end do
    do i = 1, n
      q(i, col) = result(i)
    end do
  end do

  do i = 1, n
    do j = 1, n
      output(j, i) = f(q(j, i))
    end do
  end do
end
`

// BenchmarkCompilerAnalysis measures the symbolic analysis pipeline.
func BenchmarkCompilerAnalysis(b *testing.B) {
	prog, err := source.Parse(benchProgram)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(prog)
		loopA := prog.Body[0].(*source.Do)
		_ = r.DescribeLoop(loopA)
	}
}

// BenchmarkCompilerSplit measures the full split+pipeline compilation
// of the paper's running example.
func BenchmarkCompilerSplit(b *testing.B) {
	prog, err := source.Parse(benchProgram)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compile.Compile(prog, compile.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitTransform measures the split transformation alone on
// Figure 4 (reduction splitting).
func BenchmarkSplitTransform(b *testing.B) {
	prog, err := source.Parse(`
program fig4
  integer n, a
  real x(n, n), y(n), sum
  do i = 1, n
    x(a, i) = x(a, i) + y(i)
  end do
  do i = 1, n
    do j = 1, n
      sum = sum + x(i, j)
    end do
  end do
end
`)
	if err != nil {
		b.Fatal(err)
	}
	r := analysis.Analyze(prog)
	g := prog.Body[0].(*source.Do)
	h := prog.Body[1].(*source.Do)
	dg := r.DescribeLoop(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := split.Split(r, []source.Stmt{h}, dg, nil, split.DefaultOptions())
		if !res.Applied() {
			b.Fatal("split not applied")
		}
	}
}

// BenchmarkCompilerManyPhases measures compilation of a program with
// many interacting phases (stressing the O(n²) categorization).
func BenchmarkCompilerManyPhases(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("program big\n  integer n\n  integer mask(n)\n  real q(n, n), acc(n)\n")
	for i := 0; i < 24; i++ {
		op := "!="
		if i%2 == 0 {
			op = "=="
		}
		fmt.Fprintf(&sb, "  do c%d = 2, n - 1 where (mask(c%d) %s 0)\n    do r%d = 2, n - 1\n      q(r%d, c%d) = q(r%d, c%d) + 1\n    end do\n  end do\n",
			i, i, op, i, i, i, i, i)
		fmt.Fprintf(&sb, "  do k%d = 2, n - 1\n    acc(k%d) = q(2, k%d)\n  end do\n", i, i, i)
	}
	sb.WriteString("end\n")
	prog, err := source.Parse(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compile.Compile(prog, compile.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
