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
		be, err := rts.OpenBackend(backend)
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

// TestZeroTaskOperatorGatesOnEveryEngine runs a → z → b, z a node whose
// tasks= count is zero, on the simulator, native and dist in every mode
// and reads the trace: no chunk of b may start before a's last chunk
// ended. A zero-task operator fires once its producers are full, so the
// dependency of b on a holds through it, pipelined edges or not.
func TestZeroTaskOperatorGatesOnEveryEngine(t *testing.T) {
	g, err := delirium.Decode("graph zero\nnode a kind=par\nnode z kind=par tasks=n-64\nnode b kind=par\n" +
		"edge a -> z pipelined\nedge z -> b pipelined\n")
	if err != nil {
		t.Fatal(err)
	}
	params := rts.KernelParams{}
	params.SetInt("n", 64)
	params.SetInt("tasks", 64)
	params.SetInt("unitwork", 1000)
	for _, backend := range []string{"sim", "native", "dist"} {
		be, err := rts.OpenBackend(backend)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []rts.Mode{rts.ModeStatic, rts.ModeTaper, rts.ModeSplit} {
			run := backend + "/" + mode.String()
			bound, err := rts.Bind(g, rts.NamedBinding("spin", params))
			if err != nil {
				t.Fatal(err)
			}
			var col obs.Collector
			if _, err := be.Run(g, bound, rts.RunOpts{Processors: 2, Mode: mode, Sink: &col}); err != nil {
				t.Fatalf("%s: %v", run, err)
			}
			if col.Trace == nil || col.Trace.Dropped != 0 {
				t.Fatalf("%s: no complete trace", run)
			}
			aEnd, bStart, chunks := 0.0, 0.0, map[string]int{}
			for _, e := range col.Trace.Events {
				if e.Kind != obs.KindChunk {
					continue
				}
				switch name := col.Trace.Ops[e.Op]; name {
				case "a":
					aEnd = max(aEnd, e.T1)
				case "b":
					if chunks[name] == 0 || e.T0 < bStart {
						bStart = e.T0
					}
				}
				chunks[col.Trace.Ops[e.Op]]++
			}
			if chunks["a"] == 0 || chunks["b"] == 0 || chunks["z"] != 0 {
				t.Fatalf("%s: chunks per operator %v, want some of a and b and none of z", run, chunks)
			}
			if bStart < aEnd {
				t.Errorf("%s: b started at %.6g, before a's last chunk ended at %.6g", run, bStart, aEnd)
			}
		}
	}
}

// TestStaticBlocksOnEveryEngine runs a → b under ModeStatic on the
// simulator, native and dist and counts each operator's chunks in the
// trace: block j of an n-task operator on p workers is
// sched.BlockBounds(j, n, p), run as one chunk, so every operator runs
// as min(n, p) chunks on every engine, small n included.
func TestStaticBlocksOnEveryEngine(t *testing.T) {
	g, err := delirium.Decode("graph blocks\nnode a kind=par\nnode b kind=par\nedge a -> b\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"sim", "native", "dist"} {
		be, err := rts.OpenBackend(backend)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 3, 5, 7, 64} {
			for _, p := range []int{2, 4} {
				params := rts.KernelParams{}
				params.SetInt("n", n)
				params.SetInt("tasks", n)
				params.SetInt("unitwork", 100)
				bound, err := rts.Bind(g, rts.NamedBinding("spin", params))
				if err != nil {
					t.Fatal(err)
				}
				var col obs.Collector
				if _, err := be.Run(g, bound, rts.RunOpts{Processors: p, Mode: rts.ModeStatic, Sink: &col}); err != nil {
					t.Fatalf("%s n=%d p=%d: %v", backend, n, p, err)
				}
				if col.Trace == nil || col.Trace.Dropped != 0 {
					t.Fatalf("%s n=%d p=%d: no complete trace", backend, n, p)
				}
				chunks := make([]int, len(col.Trace.Ops))
				for _, e := range col.Trace.Events {
					if e.Kind == obs.KindChunk {
						chunks[e.Op]++
					}
				}
				for op, c := range chunks {
					if c != min(n, p) {
						t.Errorf("%s n=%d p=%d: %s ran as %d chunks, want %d",
							backend, n, p, col.Trace.Ops[op], c, min(n, p))
					}
				}
			}
		}
	}
}
