package core

import (
	"os"
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
)

// TestBarrieredModesSerialiseOnEveryEngine runs psirrfan's graph, whose
// projI and update are independent, under ModeStatic and ModeTaper on
// the simulator, native and dist, and reads the trace: no operator's
// first chunk may start before the previous operator's last chunk
// ended. Static and TAPER put every operator on all processors with a
// barrier after it, on every engine.
func TestBarrieredModesSerialiseOnEveryEngine(t *testing.T) {
	text, err := os.ReadFile("../../examples/psirrfan/psirrfan.graph")
	if err != nil {
		t.Fatal(err)
	}
	g, err := delirium.Decode(string(text))
	if err != nil {
		t.Fatal(err)
	}
	params := rts.KernelParams{}
	params.SetInt("n", 512)
	params.SetInt("unitwork", 1000)
	for _, backend := range []string{"sim", "native", "dist"} {
		kernel := "spin"
		if backend == "sim" {
			kernel = "lognormal"
		}
		be, err := rts.OpenBackend(backend, rts.BackendConfig{Processors: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []rts.Mode{rts.ModeStatic, rts.ModeTaper} {
			bound, err := rts.Bind(g, rts.NamedBinding(kernel, params))
			if err != nil {
				t.Fatal(err)
			}
			var col obs.Collector
			if _, err := be.Run(g, bound, rts.RunOpts{Processors: 2, Mode: mode, Sink: &col}); err != nil {
				t.Fatalf("%s/%v: %v", backend, mode, err)
			}
			checkSerialised(t, backend+"/"+mode.String(), col.Trace)
		}
	}
}

// checkSerialised asserts that the trace's operators ran one after
// another, in the trace's operator order.
func checkSerialised(t *testing.T, run string, tr *obs.Trace) {
	t.Helper()
	if tr == nil || tr.Dropped != 0 {
		t.Fatalf("%s: no complete trace", run)
	}
	first := make([]float64, len(tr.Ops))
	last := make([]float64, len(tr.Ops))
	seen := make([]bool, len(tr.Ops))
	for _, e := range tr.Events {
		if e.Kind != obs.KindChunk {
			continue
		}
		if !seen[e.Op] || e.T0 < first[e.Op] {
			first[e.Op] = e.T0
		}
		if !seen[e.Op] || e.T1 > last[e.Op] {
			last[e.Op] = e.T1
		}
		seen[e.Op] = true
	}
	for op := range tr.Ops {
		if !seen[op] {
			t.Fatalf("%s: operator %s ran no chunk", run, tr.Ops[op])
		}
		if op > 0 && first[op] < last[op-1] {
			t.Errorf("%s: %s started at %.6g, before %s's last chunk ended at %.6g",
				run, tr.Ops[op], first[op], tr.Ops[op-1], last[op-1])
		}
	}
}
