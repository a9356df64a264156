package sched_test

import (
	"testing"

	"orchestra/internal/machine"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/trace"
)

// These tests hold what this package's decomposition, chunk rules and
// victim choice do when the simulator runs one operation with them:
// rts.RunOp under ModeStatic (count blocks, one chunk per owner) and
// ModeTaper (owner-computes TAPER with re-assignment).

func runOp(t *testing.T, op sched.Op, p int, mode rts.Mode) trace.Result {
	t.Helper()
	r, err := rts.RunOp(machine.DefaultConfig(p), rts.OpSpec{Op: op}, rts.RunOpts{Processors: p, Mode: mode})
	if err != nil {
		t.Fatalf("%s/%v on %d: %v", op.Name, mode, p, err)
	}
	return r
}

// TestStaticUniformEfficiency: static never steals, and its only
// messages are one completion token per block.
func TestStaticUniformEfficiency(t *testing.T) {
	r := runOp(t, sched.UniformOp(16384, 1.0), 16, rts.ModeStatic)
	if eff := r.Efficiency(); eff < 0.95 {
		t.Fatalf("static on uniform work: eff = %v", eff)
	}
	if r.Steals != 0 || r.Messages != 16 {
		t.Fatalf("static: %d steals and %d messages, want 0 and one token per block (16)", r.Steals, r.Messages)
	}
}

// TestStaticChunksAreBlocks pins that a static run counts its
// non-empty blocks: an operator with fewer tasks than processors, or
// none, leaves some processors without a chunk.
func TestStaticChunksAreBlocks(t *testing.T) {
	for _, c := range []struct{ n, p, want int }{{16384, 16, 16}, {5, 16, 5}, {16, 16, 16}, {0, 16, 0}} {
		if r := runOp(t, sched.UniformOp(c.n, 1.0), c.p, rts.ModeStatic); r.Chunks != c.want {
			t.Errorf("%d tasks on %d processors: %d chunks, want %d", c.n, c.p, r.Chunks, c.want)
		}
	}
}

func TestStaticIrregularImbalance(t *testing.T) {
	r := runOp(t, sched.IrregularOp(1024, 1), 32, rts.ModeStatic)
	if r.LoadImbalance() < 1.2 {
		t.Fatalf("irregular static load should be imbalanced: %v", r.LoadImbalance())
	}
}

func TestDistributedBeatsStaticOnIrregular(t *testing.T) {
	op := sched.IrregularOp(2048, 3)
	st := runOp(t, op, 64, rts.ModeStatic)
	tp := runOp(t, op, 64, rts.ModeTaper)
	if tp.Makespan >= st.Makespan {
		t.Fatalf("TAPER (%v) should beat static (%v) on irregular work", tp.Makespan, st.Makespan)
	}
	if tp.Speedup() <= st.Speedup() {
		t.Fatalf("TAPER speedup %v <= static %v", tp.Speedup(), st.Speedup())
	}
}

func TestDistributedLocalityOnUniform(t *testing.T) {
	// With uniform tasks, almost nothing should be stolen.
	p := 32
	r := runOp(t, sched.UniformOp(32768, 1.0), p, rts.ModeTaper)
	if r.Steals > p {
		t.Fatalf("uniform work stole %d chunks", r.Steals)
	}
	if eff := r.Efficiency(); eff < 0.9 {
		t.Fatalf("uniform distributed eff = %v", eff)
	}
}

func TestDistributedExecutesAllWork(t *testing.T) {
	for _, p := range []int{1, 3, 16} {
		r := runOp(t, sched.IrregularOp(333, 11), p, rts.ModeTaper)
		var busy float64
		for _, b := range r.Busy {
			busy += b
		}
		if busy < r.SeqTime-1e-9 {
			t.Fatalf("p=%d: busy %v < seq %v", p, busy, r.SeqTime)
		}
		if r.Makespan < r.SeqTime/float64(p)-1e-9 {
			t.Fatalf("p=%d: makespan %v below ideal %v", p, r.Makespan, r.SeqTime/float64(p))
		}
	}
}

func TestDeterminism(t *testing.T) {
	op := sched.IrregularOp(512, 21)
	if runOp(t, op, 16, rts.ModeTaper).Makespan != runOp(t, op, 16, rts.ModeTaper).Makespan {
		t.Fatal("distributed execution not deterministic")
	}
}

func TestHintedExecutionBeatsUnhinted(t *testing.T) {
	// With a warm cost function the runtime balances by cost and starts
	// stragglers early; it must beat the cold execution on irregular
	// work at high processor counts.
	n, p := 4096, 512
	hinted := sched.HintedOp(n, 9)
	cold := hinted
	cold.Hint = nil
	rh := runOp(t, hinted, p, rts.ModeTaper)
	rc := runOp(t, cold, p, rts.ModeTaper)
	if rh.Makespan >= rc.Makespan {
		t.Fatalf("hints did not help: %v vs %v", rh.Makespan, rc.Makespan)
	}
}

// TestExecutorsCallEachBodyOnce: every simulated execution calls each
// task body exactly once — inside a chunk, never in an accounting pass
// — and still reports the sequential time TotalTime would.
func TestExecutorsCallEachBodyOnce(t *testing.T) {
	const n, p = 300, 8
	taper := func() sched.Policy { return &sched.Taper{UseCostFunction: true} }
	cost := func(i int) float64 { return 1 + float64(i%5)/3 }
	want := sched.Op{N: n, Time: cost}.TotalTime()
	runs := map[string]func(sched.Op) trace.Result{
		"static": func(op sched.Op) trace.Result { return runOp(t, op, p, rts.ModeStatic) },
		"central": func(op sched.Op) trace.Result {
			return sched.ExecuteCentral(machine.DefaultConfig(p), op, sched.ProcList(p), taper)
		},
		"distributed": func(op sched.Op) trace.Result { return runOp(t, op, p, rts.ModeTaper) },
	}
	for name, run := range runs {
		calls := make([]int, n)
		r := run(sched.Op{Name: name, N: n, Bytes: 64, Time: func(i int) float64 {
			calls[i]++
			return cost(i)
		}})
		for i, c := range calls {
			if c != 1 {
				t.Fatalf("%s: task %d body called %d times, want 1", name, i, c)
			}
		}
		if r.SeqTime != want {
			t.Fatalf("%s: SeqTime %v, want %v", name, r.SeqTime, want)
		}
	}
}
