// Pipeline: the runtime side of §4.1's communication-granularity
// choice. A producer operation streams results into a consumer; the
// runtime picks the batch size m* that balances per-message overhead
// against pipeline fill, and the pipelined pair beats the traditional
// barrier execution.
//
//	go run ./examples/pipeline [-p procs] [-n tasks]
package main

import (
	"flag"
	"fmt"

	"orchestra/internal/delirium"
	"orchestra/internal/machine"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/stats"
)

func main() {
	p := flag.Int("p", 128, "processors")
	n := flag.Int("n", 4096, "tasks per operation")
	flag.Parse()

	// A machine with expensive messages relative to the task grain —
	// the regime where communication granularity matters (the paper's
	// Ncube-2 messages cost hundreds of microseconds).
	cfg := machine.DefaultConfig(*p)
	cfg.MsgOverhead = 1.0
	cfg.HopLatency = 0.1
	cfg.ByteCost = 0.001
	rng := stats.NewRNG(5)

	// Producer: a regular transform phase; consumer: regular. (With an
	// irregular producer, head-of-line blocking inside batches shifts
	// the optimum toward smaller batches — try editing the
	// distribution.)
	prodTimes := make([]float64, *n)
	for i := range prodTimes {
		prodTimes[i] = rng.Uniform(2.5, 3.5)
	}
	pt := prodTimes
	prod := rts.OpSpec{Op: sched.Op{
		Name: "produce", N: *n, Bytes: 64,
		Time: func(i int) float64 { return pt[i] },
		Hint: func(i int) float64 { return pt[i] },
	}}
	prod.SampleStats(128)
	cons := rts.OpSpec{Op: sched.Op{
		Name: "consume", N: *n, Bytes: 64,
		Time: func(int) float64 { return 1.5 },
		Hint: func(int) float64 { return 1.5 },
	}}
	cons.SampleStats(128)

	// The runtime's choice.
	mStar := rts.ChooseGranularity(cfg, *n, prod.Op.Bytes)
	fmt.Printf("communication granularity: m* = %d items per message\n", mStar)
	fmt.Println("\ntransfer-cost model across batch sizes (per equation in §4.1):")
	for _, m := range []int{1, 8, 32, mStar, 512, *n} {
		fmt.Printf("  m=%5d  cost=%8.1f\n", m, rts.PipeBatchCost(cfg, *n, prod.Op.Bytes, m))
	}

	// Processor allocation for the pair, then execution.
	p1, p2 := rts.AllocateSpecs(cfg, prod, cons, *p)
	fmt.Printf("\nprocessor allocation: producer %d, consumer %d (of %d)\n", p1, p2, *p)

	fmt.Println("\ncommunication granularity sweep (dedicated producer/consumer subsets);")
	fmt.Println("the model-chosen m* sits near the measured optimum, far from both extremes:")
	for _, m := range []int{1, 32, mStar, 1024, *n} {
		r := rts.ExecutePipelined(cfg, prod, cons, p1, p2, m)
		label := fmt.Sprintf("m=%d", m)
		if m == mStar {
			label = fmt.Sprintf("m*=%d (chosen)", m)
		}
		fmt.Printf("  %-18s makespan %8.1f  speedup %6.1f\n", label, r.Makespan, r.Speedup())
	}

	// The overlap benefit itself shows when both operations share the
	// whole machine under the dataflow runtime: a pipelined edge lets
	// the consumer start on partial data.
	for _, pipelined := range []bool{false, true} {
		g := delirium.NewGraph("pair")
		if err := g.AddNode(&delirium.Node{Name: "produce", Kind: delirium.Par}); err != nil {
			panic(err)
		}
		if err := g.AddNode(&delirium.Node{Name: "consume", Kind: delirium.Par}); err != nil {
			panic(err)
		}
		g.AddEdge(&delirium.Edge{From: "produce", To: "consume", Bytes: 64, PerTask: true, Pipelined: pipelined})
		bind := func(name string) rts.OpSpec {
			if name == "produce" {
				return prod
			}
			return cons
		}
		r, err := rts.ExecuteDAG(cfg, g, bind, rts.RunOpts{Processors: *p})
		if err != nil {
			panic(err)
		}
		label := "dataflow, plain edge:"
		if pipelined {
			label = "dataflow, pipelined edge:"
		}
		fmt.Printf("%-28s makespan %8.1f  speedup %6.1f\n", label, r.Makespan, r.Speedup())
	}
}
