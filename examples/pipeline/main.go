// Pipeline: the runtime side of §4.1's communication-granularity
// choice. A producer operation streams results into a consumer; the
// runtime picks the batch size m* that balances per-message overhead
// against pipeline fill, caps it by the producer's finishing-time
// estimate, and gates the consumer on that batch. The pair runs
// through rts.RunGraph three ways — pipelined edge, plain edge, and the
// traditional barrier between the operations — and the pipelined edge
// finishes first.
//
// It pays because the producer is irregular: a quarter of its tasks
// are drawn from a log-normal tail, so the producer ends with a few
// long tasks on a few processors, and a consumer that may start on
// delivered batches fills the processors that tail leaves idle. A
// pipelined edge does not pay on the simulator when both operations
// are regular and balanced: the producer then keeps every processor
// busy to the end, there is no tail to overlap, and the gate's batches
// only cost the consumer its large early chunks (with a producer of
// uniform 2.5–3.5 tasks here the plain edge wins, 146.9 against 148.2).
//
//	go run ./examples/pipeline [-p procs] [-n tasks]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"orchestra/internal/delirium"
	"orchestra/internal/machine"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/stats"
)

const itemBytes = 64

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := fs.Int("p", 64, "processors")
	n := fs.Int("n", 2048, "tasks per operation")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *p < 1 || *n < 1 {
		fmt.Fprintln(stderr, "pipeline: -p and -n must be positive")
		return 2
	}
	cfg := machine.DefaultConfig(*p)

	// Producer: three tasks in four take one unit, the rest come from a
	// log-normal tail; no learned cost function. Consumer: regular.
	rng := stats.NewRNG(17)
	dist := stats.Bimodal{PA: 0.75, A: stats.Constant{V: 1}, B: stats.LogNormalDist{Mu: 2.2, Sigma: 0.9}}
	prodTimes := make([]float64, *n)
	for i := range prodTimes {
		prodTimes[i] = dist.Sample(rng)
	}
	prod := rts.OpSpec{Op: sched.Op{
		Name: "produce", N: *n, Bytes: itemBytes,
		Time: func(i int) float64 { return prodTimes[i] },
	}}
	prod.SampleStats(128)
	cons := rts.OpSpec{Op: sched.Op{
		Name: "consume", N: *n, Bytes: itemBytes,
		Time: func(int) float64 { return 1.5 },
	}}
	cons.SampleStats(64)

	// The cost model's choice, and what the graph path makes of it.
	mStar := rts.ChooseGranularity(cfg, *n, itemBytes)
	fmt.Fprintf(stdout, "communication granularity: m* = %d items per message\n", mStar)
	fmt.Fprintln(stdout, "\ntransfer-cost model across batch sizes (per equation in §4.1):")
	for _, m := range []int{1, 8, 32, mStar, 512, *n} {
		fmt.Fprintf(stdout, "  m=%5d  cost=%8.1f\n", m, rts.PipeBatchCost(cfg, *n, itemBytes, m))
	}
	fmt.Fprintf(stdout, "\ngate batch on the graph path (m* capped so the producer delivers many\nbatches within its estimated finishing time): %d items\n",
		rts.ChoosePairGranularity(cfg, prod, *p, itemBytes))

	// The same pair three ways. Batch and processor allocation are the
	// graph path's own: RunGraph takes neither as an input.
	fmt.Fprintf(stdout, "\nproduce -> consume on %d processors (rts.RunGraph):\n", *p)
	for _, v := range []struct {
		label     string
		pipelined bool
		mode      rts.Mode
	}{
		{"pipelined edge", true, rts.ModeSplit},
		{"plain edge", false, rts.ModeSplit},
		{"barriered TAPER", false, rts.ModeTaper},
	} {
		g := delirium.NewGraph("pair")
		for _, name := range []string{"produce", "consume"} {
			if err := g.AddNode(&delirium.Node{Name: name, Kind: delirium.Par}); err != nil {
				fmt.Fprintln(stderr, "pipeline:", err)
				return 1
			}
		}
		g.AddEdge(&delirium.Edge{From: "produce", To: "consume", Bytes: itemBytes, PerTask: true, Pipelined: v.pipelined})
		bind := func(name string) rts.OpSpec {
			if name == "produce" {
				return prod
			}
			return cons
		}
		r, err := rts.RunGraph(cfg, g, bind, rts.RunOpts{Processors: *p, Mode: v.mode})
		if err != nil {
			fmt.Fprintln(stderr, "pipeline:", err)
			return 1
		}
		fmt.Fprintf(stdout, "  %-16s makespan %8.1f  speedup %6.1f\n", v.label, r.Makespan, r.Speedup())
	}
	return 0
}
