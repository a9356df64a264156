package rts_test

import (
	"fmt"
	"testing"

	"orchestra/internal/machine"
	"orchestra/internal/rts"
)

// BenchmarkSimDAG is the simulator layer of the per-layer cost budget:
// one barrier-free run of a paper application per iteration (the
// application is built once, outside the timer), with the event loop's
// cost per dispatched chunk next to the time. events/chunk is exact and
// machine-independent; it stays under two at every processor count
// (TestDAGEventBound).
func BenchmarkSimDAG(b *testing.B) {
	for _, name := range []string{"psirrfan", "climate"} {
		for _, p := range []int{8, 64, 512} {
			b.Run(fmt.Sprintf("%s/p=%d", name, p), func(b *testing.B) {
				app := fig6Apps[name]()
				g, cfg := app.GraphFor(rts.ModeSplit, p), machine.DefaultConfig(p)
				probe, err := rts.NewDAGProbe(nil, g, app.Bind, p)
				if err != nil {
					b.Fatal(err)
				}
				res, err := probe.Result()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := rts.RunGraph(cfg, g, app.Bind, rts.RunOpts{Processors: p, Mode: rts.ModeSplit}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(probe.Events())/float64(res.Chunks), "events/chunk")
				b.ReportMetric(float64(res.Chunks), "chunks")
			})
		}
	}
}
