package dist

import (
	"strings"
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/rts"
	taskop "orchestra/internal/sched"
	"orchestra/internal/workload"
)

// The coordinator grants through the shared rts.Frontier, whose batch
// under the coordinator's cost model is 1.
// The gate must stay inside the kernel contract it encodes: consumer
// task i of an n-task operator reads its pn-task pipelined producer at
// j = i·pn/n (integer division), so i is grantable only when the
// producer's contiguous completed prefix covers j. The brute-force
// reference below counts grantable tasks directly from that contract —
// the exact bound ceil(prefix·n/pn). The Frontier's floor rule may
// grant fewer (it is the conservative form the shared-memory engines
// use) but never more, and must grant everything once the producer is
// full; the coprime cases are where an off-by-one would hide, because
// i·pn/n then lands on every residue.

// bruteAllowedHi counts the longest grantable prefix of the consumer:
// the first i whose producer index is uncovered stops the scan.
func bruteAllowedHi(n, pn, prefix int) int {
	for i := 0; i < n; i++ {
		if i*pn/n >= prefix {
			return i
		}
	}
	return n
}

// gateFrontier builds the coordinator's frontier for a pn-task
// producer "p" feeding an n-task consumer "c" (index 1) over one edge.
func gateFrontier(t *testing.T, n, pn int, pipelined bool, mode rts.Mode) *rts.Frontier {
	t.Helper()
	g := delirium.NewGraph("gate")
	for _, name := range []string{"p", "c"} {
		if err := g.AddNode(&delirium.Node{Name: name, Kind: delirium.Par}); err != nil {
			t.Fatal(err)
		}
	}
	g.AddEdge(&delirium.Edge{From: "p", To: "c", Pipelined: pipelined})
	bind := func(name string) rts.OpSpec {
		tasks := n
		if name == "p" {
			tasks = pn
		}
		return rts.OpSpec{Op: taskop.Op{Name: name, N: tasks, Time: func(int) float64 { return 1 }}}
	}
	f, err := rts.NewFrontier(g, bind, mode == rts.ModeSplit, (&sched{}).costModel(), 1, rts.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var pr rts.Progress
	f.Start(&pr)
	return f
}

func TestGateWithinBruteForce(t *testing.T) {
	// Every (n, pn) pair over a range that includes coprime pairs
	// (7×13, 9×16, ...), equal counts, divisors, multiples, and the
	// degenerate single-task shapes, swept over every legal prefix.
	var pr rts.Progress
	for n := 1; n <= 24; n++ {
		for pn := 1; pn <= 24; pn++ {
			f := gateFrontier(t, n, pn, true, rts.ModeSplit)
			last := 0
			for prefix := 0; prefix <= pn; prefix++ {
				if prefix > 0 {
					f.Complete(0, prefix-1, prefix, &pr)
				}
				got := f.Enabled(1)
				if want := bruteAllowedHi(n, pn, prefix); got > want {
					t.Fatalf("Enabled(n=%d, pn=%d, prefix=%d) = %d, past the exact bound %d", n, pn, prefix, got, want)
				}
				if got < last {
					t.Fatalf("Enabled(n=%d, pn=%d) fell from %d to %d at prefix %d", n, pn, last, got, prefix)
				}
				last = got
			}
			if last != n {
				t.Fatalf("Enabled(n=%d, pn=%d) = %d after full completion, want %d", n, pn, last, n)
			}
		}
	}
}

// TestGateOutOfOrderCompletionHolds pins prefix (not count) gating: a
// completed tail must not enable a consumer whose head inputs are
// still missing.
func TestGateOutOfOrderCompletionHolds(t *testing.T) {
	var pr rts.Progress
	f := gateFrontier(t, 8, 8, true, rts.ModeSplit)
	f.Complete(0, 1, 8, &pr)
	if got := f.Enabled(1); got != 0 {
		t.Fatalf("tail-only completion enables %d tasks, want 0", got)
	}
	f.Complete(0, 0, 1, &pr)
	if got := f.Enabled(1); got != 8 {
		t.Fatalf("full completion enables %d tasks, want 8", got)
	}
}

// TestGateZeroTaskShapes pins the degenerate shapes under the fire
// rule: a zero-task producer with no producers of its own fires at
// Start, so its consumer is grantable whole from the start, and a
// zero-task consumer has nothing to grant; it fires, and is full, when
// its producer is.
func TestGateZeroTaskShapes(t *testing.T) {
	if f := gateFrontier(t, 9, 0, true, rts.ModeSplit); f.Enabled(1) != 9 || !f.Full(0) {
		t.Fatalf("zero-task source: consumer grantable %d of 9, source full %v", f.Enabled(1), f.Full(0))
	}
	var pr rts.Progress
	f := gateFrontier(t, 0, 7, true, rts.ModeSplit)
	f.Complete(0, 0, 3, &pr)
	if got := f.Enabled(1); got != 0 || f.Full(1) {
		t.Fatalf("zero-task consumer: Enabled = %d, full %v with its producer partial", got, f.Full(1))
	}
	f.Complete(0, 3, 7, &pr)
	if !f.Full(1) || len(pr.Enabled) != 0 {
		t.Fatalf("zero-task consumer: full %v, ranges %v once its producer is full", f.Full(1), pr.Enabled)
	}
}

// TestGateBarriers pins the completion-gated shapes: outside ModeSplit
// a pipelined annotation is inert, and inside it a plain dependence is
// a barrier regardless of prefix — the producer must be fully complete
// before any consumer task is grantable.
func TestGateBarriers(t *testing.T) {
	cases := []struct {
		mode      rts.Mode
		pipelined bool
	}{{rts.ModeStatic, true}, {rts.ModeTaper, true}, {rts.ModeSplit, false}}
	var pr rts.Progress
	for _, c := range cases {
		f := gateFrontier(t, 8, 8, c.pipelined, c.mode)
		f.Complete(0, 0, 7, &pr)
		if got := f.Enabled(1); got != 0 {
			t.Fatalf("mode %v pipelined=%v: incomplete producer allows %d tasks, want 0", c.mode, c.pipelined, got)
		}
		f.Complete(0, 7, 8, &pr)
		if got := f.Enabled(1); got != 8 {
			t.Fatalf("mode %v pipelined=%v: complete producer allows %d tasks, want 8", c.mode, c.pipelined, got)
		}
	}
}

// TestGateBatchOnPsirrfan pins the coordinator's batch at P = 2 on
// Psirrfan's split graph bound as the dist-coarse benchmark binds it
// (the array kernels, 16 384 tasks an operator): one task, so every
// prefix advance of update is granted to outD at once.
func TestGateBatchOnPsirrfan(t *testing.T) {
	g := workload.Psirrfan(workload.Config{N: 16, Seed: 1}).SplitGraph
	params := rts.KernelParams{}
	params.SetInt("n", 16384)
	bound, err := rts.Bind(g, rts.NamedBinding("array", params))
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSched(g, bound.Spec, rts.RunOpts{Mode: rts.ModeSplit}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var pr rts.Progress
	up, outD := s.f.Index("update"), s.f.Index("outD")
	for op := 0; op < up; op++ {
		s.f.Complete(op, 0, s.f.N(op), &pr)
	}
	s.f.Complete(up, 0, 1, &pr)
	if got := s.f.Enabled(outD); got != 1 {
		t.Fatalf("one task of update enables %d of outD, want 1", got)
	}
}

// TestRefusesExpandableGraphs pins the structural refusal: the dist
// backend cannot ship not-yet-materialized sub-graphs to worker
// processes, so a graph containing expandable operators must fail
// with an error naming the expandable node — before the binding is
// checked or any worker forks, and never by executing the Exp nodes
// as ordinary operators.
func TestRefusesExpandableGraphs(t *testing.T) {
	g := delirium.NewGraph("exp")
	if err := g.AddNode(&delirium.Node{Name: "a", Kind: delirium.Par, Tasks: "4"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(&delirium.Node{Name: "b", Kind: delirium.Exp, Tasks: "1", Rule: "dc"}); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(&delirium.Edge{From: "a", To: "b"})
	bind := func(name string) rts.OpSpec {
		spec := rts.OpSpec{Op: taskop.Op{Name: name, N: 4, Time: func(int) float64 { return 1 }}, Mu: 1}
		if name == "b" {
			spec.Op.N = 1
			spec.Expand = func(int) (*rts.Expansion, error) { return nil, nil }
		}
		return spec
	}
	_, err := (Backend{}).Run(g, rts.BindClosure(bind), rts.RunOpts{Processors: 2, Mode: rts.ModeSplit})
	if err == nil || !strings.Contains(err.Error(), `node "b" is expandable`) {
		t.Fatalf("expandable graph: got %v, want a refusal naming node b", err)
	}
}
