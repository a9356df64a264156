// Package orchestra_bench holds the standing per-layer Go benchmarks
// that need more than one internal package. The paper's tables and
// figures (§5) are printed by `go run ./cmd/orchbench` and pinned by
// the tests in internal/experiment; wall-clock end-to-end numbers come
// from `go run ./bench`.
//
// Mapping:
//
//	BenchmarkNativeBackend     — wall-clock execution on the goroutine backend
//	BenchmarkHotpathSimEvents  — the simulator's allocation-free event loop
//	BenchmarkCompiler*         — compiler-side throughput (analysis + split)
//	BenchmarkSplitTransform    — the split transformation alone (Figure 4)
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
	"orchestra/internal/machine"
	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/source"
	"orchestra/internal/split"
	"orchestra/internal/trace"
)

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
	b.ReportAllocs()
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
	b.ReportAllocs()
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := split.Split(r, []source.Stmt{h}, dg, nil)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compile.Compile(prog, compile.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
