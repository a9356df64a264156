package native_test

import (
	"fmt"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/delirium"
	"orchestra/internal/fault"
	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/trace"
)

// chainGraph builds a four-stage pipelined chain a→b→c→d plus a mixed
// consumer e that reads d through a compiler-proved chain edge and a
// through an unordered (strided) edge:
//
//	a ─p→ b ─p→ c ─p→ d ─p,chain→ e
//	a ────────────────────────────→ e
//
// Under ArrayKernels, a..d carry pointwise split annotations (all
// their inputs are pipelined), so every p-edge chains by annotation;
// e's annotation degrades to reads-all because of the strided a-edge,
// so d→e chains only through the edge attribute and a→e becomes a
// barrier delivery. The graph therefore exercises every setupChains
// path: annotation edges, attribute edges, and barrier in-edges.
func chainGraph(t testing.TB) *delirium.Graph {
	t.Helper()
	g := delirium.NewGraph("chainx")
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		if err := g.AddNode(&delirium.Node{Name: n, Kind: delirium.Par, Tasks: "n"}); err != nil {
			t.Fatal(err)
		}
	}
	edges := []*delirium.Edge{
		{From: "a", To: "b", Pipelined: true, Bytes: 8, PerTask: true},
		{From: "b", To: "c", Pipelined: true, Bytes: 8, PerTask: true},
		{From: "c", To: "d", Pipelined: true, Bytes: 8, PerTask: true},
		{From: "d", To: "e", Pipelined: true, Chain: true, Bytes: 8, PerTask: true},
		{From: "a", To: "e", Bytes: 8, PerTask: true},
	}
	for _, e := range edges {
		g.AddEdge(e)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// runChainGraph executes the chain graph natively with fresh kernels
// and returns the result and the final state digest.
func runChainGraph(t *testing.T, g *delirium.Graph, p, n int, mode rts.Mode, chain rts.ChainPolicy) (trace.Result, string) {
	t.Helper()
	bind, st, err := native.ArrayKernels(g, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := native.Backend{}.Run(g, rts.BindClosure(bind), rts.RunOpts{Processors: p, Mode: mode, Chain: chain})
	if err != nil {
		t.Fatalf("p=%d mode=%v chain=%v: %v", p, mode, chain, err)
	}
	return r, native.StateDigest(st)
}

// TestChainParity is the chain path's bitwise-identity guarantee:
// chained, unchained and barriered executions of the same kernels
// must produce identical memory images at every worker count.
func TestChainParity(t *testing.T) {
	g := chainGraph(t)
	const n = 50000
	_, want := runChainGraph(t, g, 1, n, rts.ModeStatic, rts.ChainOff)
	for _, p := range []int{1, 2, 4, 8} {
		for _, mode := range []rts.Mode{rts.ModeTaper, rts.ModeSplit} {
			for _, chain := range []rts.ChainPolicy{rts.ChainAuto, rts.ChainOff} {
				r, got := runChainGraph(t, g, p, n, mode, chain)
				if got != want {
					t.Fatalf("p=%d mode=%v chain=%v: digest %s, want %s", p, mode, chain, got, want)
				}
				if chain == rts.ChainOff && r.ChainHits+r.ChainSpills+r.ChainFallbacks != 0 {
					t.Fatalf("p=%d mode=%v: ChainOff run reported chain activity %+v", p, mode, r)
				}
				if mode != rts.ModeSplit && r.ChainHits != 0 {
					t.Fatalf("p=%d mode=%v: chaining outside split mode: %+v", p, mode, r)
				}
			}
		}
	}
}

// TestChainEngaged checks the chain path actually fires where it is
// supposed to: a split-mode run of the all-pipelined chain graph must
// execute consumer blocks in place. (Parity alone would also pass if
// chaining silently never engaged.)
func TestChainEngaged(t *testing.T) {
	g := chainGraph(t)
	for _, p := range []int{1, 4} {
		r, _ := runChainGraph(t, g, p, 50000, rts.ModeSplit, rts.ChainAuto)
		if r.ChainHits == 0 {
			t.Errorf("p=%d: split-mode chain run reported 0 chain hits (spills %d, fallbacks %d)",
				p, r.ChainSpills, r.ChainFallbacks)
		}
	}
}

// chainFanGraph builds k producers, each with two chained consumers:
//
//	aI ─p→ bI
//	aI ─p→ cI
//
// A completed producer block enables both of its consumer blocks in the
// same chainCover pass, so a crash that fires on the first chained pop
// finds the sibling block still queued: drainChain's crash path.
func chainFanGraph(t *testing.T, k int) *delirium.Graph {
	t.Helper()
	g := delirium.NewGraph("chainfan")
	for i := 0; i < k; i++ {
		a, b, c := fmt.Sprint("a", i), fmt.Sprint("b", i), fmt.Sprint("c", i)
		for _, n := range []string{a, b, c} {
			if err := g.AddNode(&delirium.Node{Name: n, Kind: delirium.Par, Tasks: "n"}); err != nil {
				t.Fatal(err)
			}
		}
		g.AddEdge(&delirium.Edge{From: a, To: b, Pipelined: true, Bytes: 8, PerTask: true})
		g.AddEdge(&delirium.Edge{From: a, To: c, Pipelined: true, Bytes: 8, PerTask: true})
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// runChainFault executes g natively in split mode with chaining on,
// under a fault plan, and returns the result and final state digest.
func runChainFault(t *testing.T, g *delirium.Graph, p, n int, plan *fault.Plan) (trace.Result, string) {
	t.Helper()
	bind, st, err := native.ArrayKernels(g, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := native.Backend{}.Run(g, rts.BindClosure(bind), rts.RunOpts{
		Processors: p, Mode: rts.ModeSplit, Chain: rts.ChainAuto, Fault: plan,
	})
	if err != nil {
		t.Fatalf("p=%d plan=%v: %v", p, plan, err)
	}
	return r, native.StateDigest(st)
}

// TestChainFaultBitwise: a worker crashing mid-chain must neither lose
// nor duplicate consumer blocks. The crashing worker leaves the popped
// block and everything still queued behind it on its own deque, and the
// survivors steal them. Every faulted run must stay bitwise identical
// to the fault-free reference.
//
// The crash path itself is driven deterministically, not by luck: on
// fans of one-task operators, a worker's first segment can only be a
// producer (consumers are chain-issued, never queued, until a crash),
// its one-task chunk enables both consumer blocks, so its second chunk
// boundary is always the first chained pop with the sibling block still
// queued. Workers 1–3 crash there; the survivor, worker 0, is slowed and
// so sleeps after every chunk, yielding its CPU to the others while
// producers remain. The run must report ChainFallbacks > 0 — parity
// alone would also pass if no crash landed inside a drain.
func TestChainFaultBitwise(t *testing.T) {
	lin := chainGraph(t)
	fan := chainFanGraph(t, 1)
	const n = 50000
	_, wantLin := runChainGraph(t, lin, 1, n, rts.ModeStatic, rts.ChainOff)
	_, wantFan := runChainGraph(t, fan, 1, n, rts.ModeStatic, rts.ChainOff)

	hits := 0
	run := func(g *delirium.Graph, n int, want, spec string) trace.Result {
		t.Helper()
		r, got := runChainFault(t, g, 4, n, mustPlan(t, spec))
		if got != want {
			t.Fatalf("%s under %q: digest %s, want %s", g.Name, spec, got, want)
		}
		hits += r.ChainHits
		return r
	}
	for _, spec := range []string{
		"crash:0@1",
		"crash:0@2",
		"crash:1@1,crash:2@3",
		"stall:1@1:0.01,crash:0@2",
	} {
		run(lin, n, wantLin, spec)
		run(fan, n, wantFan, spec)
	}
	if hits == 0 {
		t.Fatal("no chained chunk ran under fault injection")
	}

	fans := chainFanGraph(t, 8)
	_, wantFans := runChainGraph(t, fans, 1, 1, rts.ModeStatic, rts.ChainOff)
	if r := run(fans, 1, wantFans, "slow:0@0:50,crash:1@1,crash:2@1,crash:3@1"); r.ChainFallbacks == 0 {
		t.Fatalf("no crash landed mid-drain: the chain fallback path never fired (%+v)", r)
	}
}

// TestChainQuickstartParity runs the compiled quickstart program —
// realistic split-produced concurrency — chained against unchained on
// the native backend and against the simulator reference.
func TestChainQuickstartParity(t *testing.T) {
	out, err := core.CompileSource(quickstartProgram, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	ref := runKernels(t, out, "sim", 1, rts.ModeStatic, n, 1)
	for _, p := range []int{1, 8} {
		bind, st, err := native.ArrayKernels(out.Graph, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (native.Backend{}).Run(out.Graph, rts.BindClosure(bind), rts.RunOpts{Processors: p, Mode: rts.ModeSplit, Chain: rts.ChainAuto}); err != nil {
			t.Fatal(err)
		}
		for name, want := range ref {
			g := st.Arrays[name]
			for i := range want {
				if g[i] != want[i] {
					t.Fatalf("p=%d: %s[%d] = %v, want %v", p, name, i, g[i], want[i])
				}
			}
		}
	}
}
