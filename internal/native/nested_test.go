package native_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"orchestra/internal/delirium"
	"orchestra/internal/interp"
	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/trace"
)

// expChainGraph builds a chain whose interior operator expands at
// runtime:
//
//	a ─p,chain→ x (exp) ─p,chain→ out
//
// Both pipelined edges are also chain-attributed, so they are the
// graph's only chain candidates — and both touch the expandable
// operator. The chain planner must exclude them (a chained block
// enqueued against x would target a consumer whose real body is a
// not-yet-materialized sub-graph), which means every run of this graph
// must barrier-convert and report zero chain activity.
func expChainGraph(t testing.TB, n int) *delirium.Graph {
	t.Helper()
	g := delirium.NewGraph("expchain")
	nodes := []*delirium.Node{
		{Name: "a", Kind: delirium.Par, Tasks: strconv.Itoa(n)},
		{Name: "x", Kind: delirium.Exp, Tasks: "1", Rule: "leaf"},
		{Name: "out", Kind: delirium.Par, Tasks: strconv.Itoa(n)},
	}
	for _, nd := range nodes {
		if err := g.AddNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	g.AddEdge(&delirium.Edge{From: "a", To: "x", Pipelined: true, Chain: true, Bytes: 8, PerTask: true})
	g.AddEdge(&delirium.Edge{From: "x", To: "out", Pipelined: true, Chain: true, Bytes: 8, PerTask: true})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// expChainBinder binds expChainGraph over a fresh state: a is
// analytic, x expands into a single m-task sub-operator x/0 reading a,
// x's join folds x/0, and out reads the join. All bodies overwrite
// their slot from pure inputs, so re-execution under faults is
// idempotent.
func expChainBinder(n, m int) (rts.Binder, *interp.State) {
	st := interp.NewState()
	st.Alloc("a", n)
	st.Alloc("x/0", m)
	st.Alloc("x", 1)
	st.Alloc("out", n)
	a, sub, join, out := st.Arrays["a"], st.Arrays["x/0"], st.Arrays["x"], st.Arrays["out"]

	subSpec := func(name string) rts.OpSpec {
		return rts.OpSpec{Op: sched.Op{Name: name, N: m, Time: func(i int) float64 {
			sub[i] = a[i*n/m]*1.5 + float64(i%13)/13
			return 1
		}}, Mu: 1}
	}
	return func(name string) rts.OpSpec {
		switch name {
		case "a":
			return rts.OpSpec{Op: sched.Op{Name: name, N: n, Time: func(i int) float64 {
				a[i] = float64(i%97)/97 + 1
				return 1
			}}, Mu: 1}
		case "x":
			return rts.OpSpec{
				Op: sched.Op{Name: name, N: 1, Time: func(int) float64 {
					v := 0.0
					for _, s := range sub {
						v += s * 0.5
					}
					join[0] = v
					return 1
				}},
				Mu: 1,
				Expand: func(depth int) (*rts.Expansion, error) {
					sg := delirium.NewGraph("x")
					sg.AddNode(&delirium.Node{Name: "x/0", Kind: delirium.Par, Tasks: strconv.Itoa(m)})
					return &rts.Expansion{Graph: sg, Bind: subSpec}, nil
				},
			}
		default: // out
			return rts.OpSpec{Op: sched.Op{Name: name, N: n, Time: func(i int) float64 {
				out[i] = join[0]*0.25 + float64(i%7)/7
				return 1
			}}, Mu: 1}
		}
	}, st
}

func runExpChain(t *testing.T, g *delirium.Graph, n, m, p int, mode rts.Mode, chain rts.ChainPolicy, plan string) (trace.Result, string) {
	t.Helper()
	bind, st := expChainBinder(n, m)
	opts := rts.RunOpts{Processors: p, Mode: mode, Chain: chain}
	if plan != "" {
		opts.Fault = mustPlan(t, plan)
	}
	r, err := native.Backend{}.Run(g, rts.BindClosure(bind), opts)
	if err != nil {
		t.Fatalf("p=%d mode=%v chain=%v plan=%q: %v", p, mode, chain, plan, err)
	}
	return r, native.StateDigest(st)
}

// TestChainExpandableConsumerParity is the chain/expansion seam's
// bitwise guarantee: with every chain candidate adjacent to the
// expandable operator, all runs must barrier-convert (zero chain
// activity) and still reproduce the serial reference digest at every
// worker count, mode, and chain policy.
func TestChainExpandableConsumerParity(t *testing.T) {
	const n, m = 2000, 8000
	g := expChainGraph(t, n)
	_, want := runExpChain(t, g, n, m, 1, rts.ModeStatic, rts.ChainOff, "")
	for _, p := range []int{1, 2, 4, 8} {
		for _, mode := range []rts.Mode{rts.ModeTaper, rts.ModeSplit} {
			for _, chain := range []rts.ChainPolicy{rts.ChainAuto, rts.ChainOff} {
				r, got := runExpChain(t, g, n, m, p, mode, chain, "")
				if got != want {
					t.Fatalf("p=%d mode=%v chain=%v: digest %s, want %s", p, mode, chain, got, want)
				}
				if r.ChainHits+r.ChainSpills+r.ChainFallbacks != 0 {
					t.Fatalf("p=%d mode=%v chain=%v: chain activity across an expandable endpoint: %+v",
						p, mode, chain, r)
				}
			}
		}
	}
}

// TestChainExpandableCrashMidExpansion drives worker crashes into the
// middle of a materialized sub-graph: the sub-operator carries most of
// the work, so crashes at low chunk indices land while sub-tasks are
// executing. Recovery must replay onto survivors without losing the
// join's release of out, and the final image must stay bitwise equal
// to the fault-free serial reference.
func TestChainExpandableCrashMidExpansion(t *testing.T) {
	const n, m = 1000, 40000
	g := expChainGraph(t, n)
	_, want := runExpChain(t, g, n, m, 1, rts.ModeStatic, rts.ChainOff, "")
	for _, spec := range []string{
		"crash:0@2",
		"crash:1@4",
		"crash:0@2,crash:1@4",
		"stall:2@1:0.01,crash:0@3",
	} {
		_, got := runExpChain(t, g, n, m, 4, rts.ModeSplit, rts.ChainAuto, spec)
		if got != want {
			t.Fatalf("under %q: digest %s, want %s", spec, got, want)
		}
	}
}

// TestExpandDepthBoundNative: the native engine must fail a rule with
// no base case at the shared depth bound rather than splicing forever.
func TestExpandDepthBoundNative(t *testing.T) {
	g := expChainGraph(t, 8)
	var rec func(name string) rts.OpSpec
	rec = func(name string) rts.OpSpec {
		spec := rts.OpSpec{Op: sched.Op{Name: name, N: 1, Time: func(int) float64 { return 0 }}, Mu: 1}
		spec.Expand = func(depth int) (*rts.Expansion, error) {
			sub := delirium.NewGraph(name)
			sub.AddNode(&delirium.Node{Name: name + "/x", Kind: delirium.Exp, Tasks: "1", Rule: "rec"})
			return &rts.Expansion{Graph: sub, Bind: rec}, nil
		}
		return spec
	}
	bind := func(name string) rts.OpSpec {
		if name == "x" {
			return rec(name)
		}
		return rts.OpSpec{Op: sched.Op{Name: name, N: 8, Time: func(int) float64 { return 1 }}, Mu: 1}
	}
	for _, mode := range []rts.Mode{rts.ModeSplit, rts.ModeTaper} {
		_, err := native.Backend{}.Run(g, rts.BindClosure(bind), rts.RunOpts{Processors: 4, Mode: mode})
		if err == nil || !strings.Contains(err.Error(), "depth bound") {
			t.Fatalf("mode %v: error = %v, want one mentioning the depth bound", mode, err)
		}
	}
}

// expCancelBinder binds expChainGraph so the expansion's first
// sub-task parks on the run context: the run is guaranteed to be
// mid-expansion (sub-graph spliced, sub-tasks executing) when cancel
// fires.
func expCancelBinder(ctx context.Context, started chan<- struct{}) rts.Binder {
	var once sync.Once
	return func(name string) rts.OpSpec {
		spec := rts.OpSpec{Op: sched.Op{Name: name, N: 16, Time: func(int) float64 { return 1 }}, Mu: 1}
		if name != "x" {
			return spec
		}
		spec.Op.N = 1
		spec.Expand = func(depth int) (*rts.Expansion, error) {
			sg := delirium.NewGraph("x")
			sg.AddNode(&delirium.Node{Name: "x/0", Kind: delirium.Par, Tasks: "64"})
			return &rts.Expansion{Graph: sg, Bind: func(nm string) rts.OpSpec {
				return rts.OpSpec{Op: sched.Op{Name: nm, N: 64, Time: func(i int) float64 {
					if i == 0 {
						once.Do(func() { close(started) })
						<-ctx.Done()
					}
					return 1
				}}, Mu: 1}
			}}, nil
		}
		return spec
	}
}

// TestCancelMidExpansionReleasesGoroutines cancels a native run while
// a spliced sub-graph task is executing: the engine must abandon the
// remaining sub-tasks and the join, surface the distinguishable cancel
// error, and join every worker goroutine.
func TestCancelMidExpansionReleasesGoroutines(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	g := expChainGraph(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		_, err := native.Backend{}.Run(g, rts.BindClosure(expCancelBinder(ctx, started)), rts.RunOpts{
			Processors: 4, Mode: rts.ModeSplit, Ctx: ctx,
		})
		errCh <- err
	}()
	<-started
	cancel()
	err := <-errCh
	if !rts.IsCanceled(err) {
		t.Fatalf("error = %v, want one wrapping rts.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want it to also wrap context.Canceled", err)
	}

	for i := 0; i < 100; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after canceled run (worker leak)", base, runtime.NumGoroutine())
}

// TestCancelMidExpansionReleasesPoolLease runs the same mid-expansion
// cancellation through a warm pool: the canceled job must return its
// leased workers (Free recovers to Size) and leave the pool healthy
// enough to run the next job to completion.
func TestCancelMidExpansionReleasesPoolLease(t *testing.T) {
	pool := native.NewPool(4)
	defer pool.Close()

	g := expChainGraph(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		_, err := pool.Run(g, rts.BindClosure(expCancelBinder(ctx, started)), rts.RunOpts{
			Processors: 4, Mode: rts.ModeSplit, Ctx: ctx,
		})
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; !rts.IsCanceled(err) {
		t.Fatalf("error = %v, want one wrapping rts.ErrCanceled", err)
	}

	released := false
	for i := 0; i < 100 && !released; i++ {
		released = pool.Stats().Free == pool.Size()
		if !released {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !released {
		st := pool.Stats()
		t.Fatalf("canceled job never released its lease: %+v", st)
	}

	bind, st := expChainBinder(16, 64)
	if _, err := pool.Run(g, rts.BindClosure(bind), rts.RunOpts{
		Processors: 4, Mode: rts.ModeSplit,
	}); err != nil {
		t.Fatalf("pool unusable after canceled expansion: %v", err)
	}
	if d := native.StateDigest(st); d == "" {
		t.Fatal("follow-up run produced no state")
	}
	if got := fmt.Sprintf("%d/%d", pool.Stats().Free, pool.Size()); got != "4/4" {
		t.Fatalf("pool free/size after follow-up run = %s, want 4/4", got)
	}
}
