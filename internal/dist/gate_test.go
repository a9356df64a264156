package dist

import (
	"errors"
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/rts"
	taskop "orchestra/internal/sched"
)

// The coordinator grants through the shared rts.Frontier with batch 1.
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
	f, err := rts.NewFrontier(g, bind, mode == rts.ModeSplit, nil, rts.Limits{})
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

// TestGateZeroTaskShapes pins the degenerate shapes: a zero-task
// producer has nothing to read, so it must never gate its consumer,
// and a zero-task consumer has nothing to grant either way.
func TestGateZeroTaskShapes(t *testing.T) {
	if got := gateFrontier(t, 9, 0, true, rts.ModeSplit).Enabled(1); got != 9 {
		t.Fatalf("zero-task producer gates consumer to %d, want 9", got)
	}
	var pr rts.Progress
	f := gateFrontier(t, 0, 7, true, rts.ModeSplit)
	f.Complete(0, 0, 3, &pr)
	if got := f.Enabled(1); got != 0 {
		t.Fatalf("zero-task consumer Enabled = %d, want 0", got)
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

// TestRefusesExpandableGraphs pins the structural refusal: the dist
// backend cannot ship not-yet-materialized sub-graphs to worker
// processes, so a graph containing expandable operators must fail
// with a structured *rts.OptionError naming Expand — before any
// worker forks, and never by executing the Exp nodes as ordinary
// operators.
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
	var oe *rts.OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("expandable graph: got %v, want *rts.OptionError", err)
	}
	if oe.Backend != "dist" || len(oe.Fields) != 1 || oe.Fields[0] != "Expand" {
		t.Fatalf("OptionError = %+v, want Backend=dist Fields=[Expand]", oe)
	}
}
