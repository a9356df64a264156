package rts

import (
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/machine"
	"orchestra/internal/obs"
)

func dagGraph(t *testing.T, edges [][2]string, pipelined map[[2]string]bool, nodes ...string) *delirium.Graph {
	t.Helper()
	g := delirium.NewGraph("test")
	for _, n := range nodes {
		if err := g.AddNode(&delirium.Node{Name: n, Kind: delirium.Par}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range edges {
		g.AddEdge(&delirium.Edge{From: e[0], To: e[1], Bytes: 8, PerTask: true,
			Pipelined: pipelined[e]})
	}
	return g
}

func TestExecuteDAGChain(t *testing.T) {
	g := dagGraph(t, [][2]string{{"a", "b"}, {"b", "c"}}, nil, "a", "b", "c")
	bind := func(string) OpSpec { return uniformSpec(512, 1) }
	cfg := machine.DefaultConfig(32)
	r, err := RunGraph(cfg, g, bind, RunOpts{Processors: 32, Mode: ModeSplit})
	if err != nil {
		t.Fatal(err)
	}
	ideal := r.SeqTime / 32
	if r.Makespan < ideal {
		t.Fatalf("makespan %v below ideal %v", r.Makespan, ideal)
	}
	if r.Makespan > 1.5*ideal {
		t.Fatalf("chain too slow: %v vs ideal %v", r.Makespan, ideal)
	}
	var busy float64
	for _, b := range r.Busy {
		busy += b
	}
	if busy < r.SeqTime {
		t.Fatalf("lost work: %v < %v", busy, r.SeqTime)
	}
}

func TestExecuteDAGDiamondOverlap(t *testing.T) {
	// a -> {b, c} -> d: b and c run concurrently; total time is close
	// to the total work divided by p, not the sum of phase times.
	g := dagGraph(t, [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}},
		nil, "a", "b", "c", "d")
	bind := func(string) OpSpec { return uniformSpec(1024, 1) }
	cfg := machine.DefaultConfig(64)
	r, err := RunGraph(cfg, g, bind, RunOpts{Processors: 64, Mode: ModeSplit})
	if err != nil {
		t.Fatal(err)
	}
	ideal := r.SeqTime / 64
	if r.Makespan > 1.4*ideal {
		t.Fatalf("diamond did not overlap: %v vs ideal %v", r.Makespan, ideal)
	}
}

func TestExecuteDAGRespectsDependence(t *testing.T) {
	// A two-node chain cannot finish faster than the critical path:
	// half the work must wait for the first half.
	g := dagGraph(t, [][2]string{{"a", "b"}}, nil, "a", "b")
	bind := func(string) OpSpec { return uniformSpec(256, 1) }
	cfg := machine.DefaultConfig(256)
	r, err := RunGraph(cfg, g, bind, RunOpts{Processors: 256, Mode: ModeSplit})
	if err != nil {
		t.Fatal(err)
	}
	// Each op has 256 tasks of time 1 on 256 procs: critical path >= 2.
	if r.Makespan < 2 {
		t.Fatalf("dependence violated: makespan %v", r.Makespan)
	}
}

func TestExecuteDAGPipelinedGateOverlaps(t *testing.T) {
	// With a pipelined edge, the consumer overlaps the producer's
	// irregular tail and the pair finishes faster than with a plain
	// edge, which gates the consumer on the producer's last task.
	plain := dagGraph(t, [][2]string{{"a", "b"}}, nil, "a", "b")
	piped := dagGraph(t, [][2]string{{"a", "b"}},
		map[[2]string]bool{{"a", "b"}: true}, "a", "b")
	// The producer runs at ~3 tasks/processor, so its makespan is
	// floored by task granularity; the consumer carries enough work to
	// fill the idle tail when the gate opens incrementally.
	prod := boundedIrregularSpec(1536, 41)
	cons := uniformSpec(1536, 8)
	bind := func(name string) OpSpec {
		if name == "a" {
			return prod
		}
		return cons
	}
	cfg := machine.DefaultConfig(512)

	// Observe when the consumer first dispatches and when the producer
	// completes — both read off the event trace: with a plain edge the
	// consumer is gated on the whole producer; with a pipelined edge it
	// starts on partial data.
	run := func(g *delirium.Graph) (consStart, prodFinish, makespan float64) {
		var col obs.Collector
		r, err := RunGraph(cfg, g, bind, RunOpts{Processors: 512, Sink: &col, Mode: ModeSplit})
		if err != nil {
			t.Fatal(err)
		}
		opIdx := func(name string) int32 {
			for i, n := range col.Trace.Ops {
				if n == name {
					return int32(i)
				}
			}
			t.Fatalf("op %q not in trace", name)
			return -1
		}
		a, b := opIdx("a"), opIdx("b")
		consStart = -1
		for _, e := range col.Trace.Events {
			if e.Kind != obs.KindChunk {
				continue
			}
			if e.Op == b && (consStart < 0 || e.T0 < consStart) {
				consStart = e.T0
			}
			if e.Op == a && e.T1 > prodFinish {
				prodFinish = e.T1
			}
		}
		return consStart, prodFinish, r.Makespan
	}

	plainStart, plainProd, plainSpan := run(plain)
	pipedStart, pipedProd, pipedSpan := run(piped)

	if plainStart < plainProd {
		t.Fatalf("plain edge let the consumer start (%v) before the producer finished (%v)",
			plainStart, plainProd)
	}
	if pipedStart >= pipedProd {
		t.Fatalf("pipelined edge did not overlap: consumer at %v, producer finished %v",
			pipedStart, pipedProd)
	}
	// Overlap must not cost anything end to end.
	if pipedSpan > 1.05*plainSpan {
		t.Fatalf("pipelined span %v much worse than plain %v", pipedSpan, plainSpan)
	}
}

// TestExecuteDAGOneProcHintedNoStall pins a dispatch deadlock: on one
// processor, topological tie-breaking can leave an operator's queue
// owned by a phantom processor (allocation shares can sum past p), so
// it is reachable only through the steal path. When the idle
// processor's single "best operator" pick was an op whose gate-enabled
// tasks all sat behind blocked queue fronts (hinted queues are
// expensive-first, not index-ordered), the old code parked the
// processor without trying the other — dispatchable — operator, and
// nothing ever woke it. The trigger was as mundane as the *edge
// declaration order* of the psirrfan split graph, so both orders run
// here.
func TestExecuteDAGOneProcHintedNoStall(t *testing.T) {
	hinted := func(name string, n int, seed uint64) OpSpec {
		s := boundedIrregularSpec(n, seed)
		s.Op.Name = name
		return s
	}
	orders := map[string][][2]string{
		"stalling": {{"projI", "outI"}, {"projPre", "projI"}, {"projPre", "update"}, {"update", "outD"}},
		"working":  {{"update", "outD"}, {"projI", "outI"}, {"projPre", "update"}, {"projPre", "projI"}},
	}
	for label, edges := range orders {
		g := dagGraph(t, edges, map[[2]string]bool{{"update", "outD"}: true},
			"projPre", "projI", "update", "outI", "outD")
		bind := func(name string) OpSpec { return hinted(name, 64, 7) }
		r, err := RunGraph(machine.DefaultConfig(1), g, bind, RunOpts{Processors: 1, Mode: ModeSplit})
		if err != nil {
			t.Fatalf("%s edge order: %v", label, err)
		}
		var busy float64
		for _, b := range r.Busy {
			busy += b
		}
		if busy < r.SeqTime {
			t.Errorf("%s edge order: lost work: busy %v < seq %v", label, busy, r.SeqTime)
		}
	}
}

func TestExecuteDAGIndependentSources(t *testing.T) {
	g := dagGraph(t, nil, nil, "a", "b", "c")
	bind := func(string) OpSpec { return uniformSpec(512, 1) }
	cfg := machine.DefaultConfig(48)
	r, err := RunGraph(cfg, g, bind, RunOpts{Processors: 48, Mode: ModeSplit})
	if err != nil {
		t.Fatal(err)
	}
	ideal := r.SeqTime / 48
	if r.Makespan > 1.3*ideal {
		t.Fatalf("independent ops did not share the machine: %v vs %v", r.Makespan, ideal)
	}
}

func TestExecuteDAGAbsorbsIrregularity(t *testing.T) {
	// The headline behaviour: an irregular op co-scheduled with a
	// regular one completes in near the combined ideal time, while the
	// chain pays the irregular op's straggler overhang separately.
	// The irregular op alone is granularity-floored (~3 tasks per
	// processor, two expensive tasks on some processor); co-scheduled
	// with a heavy regular op, the idle capacity absorbs the floor.
	irr := boundedIrregularSpec(1536, 31)
	reg := uniformSpec(2048, 8)
	bindBoth := func(name string) OpSpec {
		if name == "a" {
			return irr
		}
		return reg
	}
	conc := dagGraph(t, nil, nil, "a", "b")
	cfg := machine.DefaultConfig(512)
	r, err := RunGraph(cfg, conc, bindBoth, RunOpts{Processors: 512, Mode: ModeSplit})
	if err != nil {
		t.Fatal(err)
	}
	// The same graph barriered: each operator alone on all 512.
	phases, err := RunGraph(cfg, conc, bindBoth, RunOpts{Processors: 512, Mode: ModeTaper})
	if err != nil {
		t.Fatal(err)
	}
	if sep := phases.Makespan; r.Makespan >= sep {
		t.Fatalf("co-scheduling (%v) should beat separate phases (%v)", r.Makespan, sep)
	}
}

// TestTwoOperatorGraphs holds, through RunGraph, what the paper claims
// of a pair of parallel operations. Each row runs one pair under
// several graph shapes — no edge (concurrent), a per-task edge with or
// without Pipelined, and the same graph barriered under ModeTaper — and
// expects their makespans in strictly increasing order. Every run must
// call each task body exactly once and account for the pair's whole
// sequential time; a dataflow run must also have kept its processors
// at least that busy.
func TestTwoOperatorGraphs(t *testing.T) {
	type shape struct {
		label       string
		edge, piped bool
		mode        Mode
	}
	var (
		concurrent = shape{"concurrent", false, false, ModeSplit}
		phases     = shape{"barriered phases", false, false, ModeTaper}
		pipelined  = shape{"pipelined edge", true, true, ModeSplit}
		plain      = shape{"plain edge", true, false, ModeSplit}
		barriered  = shape{"barriered TAPER", true, false, ModeTaper}
	)
	for _, tc := range []struct {
		name  string
		p     int
		a, b  OpSpec
		order []shape
	}{
		// The paper's key claim: running an irregular operation
		// concurrently with a regular one lets the runtime smooth the
		// load, beating the barrier execution of the two.
		{"concurrent-smooths-irregularity", 128, irregularSpec(2048, 11), uniformSpec(2048, 2),
			[]shape{concurrent, phases}},
		// A producer with a log-normal tail fed into a regular
		// consumer: the pipelined gate overlaps the tail, the plain edge
		// waits for the producer's last task, and barriers also keep the
		// consumer off the processors the tail leaves idle.
		{"pipelined-beats-plain-beats-barrier", 64, irregularSpec(2048, 17), uniformSpec(2048, 1.5),
			[]shape{pipelined, plain, barriered}},
		// A small balanced pair, nothing to overlap: the gate must
		// still release every consumer task.
		{"pipelined-completes-all-work", 8, uniformSpec(100, 1), uniformSpec(100, 1),
			[]shape{pipelined}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := tc.a.Op.TotalTime() + tc.b.Op.TotalTime()
			prev := 0.0
			for _, sh := range tc.order {
				var edges [][2]string
				if sh.edge {
					edges = [][2]string{{"a", "b"}}
				}
				g := dagGraph(t, edges, map[[2]string]bool{{"a", "b"}: sh.piped}, "a", "b")
				calls := map[string][]int{"a": make([]int, tc.a.Op.N), "b": make([]int, tc.b.Op.N)}
				bind := func(name string) OpSpec {
					spec := tc.a
					if name == "b" {
						spec = tc.b
					}
					body, n := spec.Op.Time, calls[name]
					spec.Op.Time = func(i int) float64 { n[i]++; return body(i) }
					return spec
				}
				r, err := RunGraph(machine.DefaultConfig(tc.p), g, bind, RunOpts{Processors: tc.p, Mode: sh.mode})
				if err != nil {
					t.Fatalf("%s: %v", sh.label, err)
				}
				for name, n := range calls {
					checkAllExecuted(t, sh.label+"/"+name, n)
				}
				if r.SeqTime != seq {
					t.Fatalf("%s: SeqTime %v, want %v", sh.label, r.SeqTime, seq)
				}
				if r.Makespan < seq/float64(tc.p) {
					t.Fatalf("%s: impossible makespan %v", sh.label, r.Makespan)
				}
				busy := 0.0
				for _, b := range r.Busy {
					busy += b
				}
				if r.Busy != nil && busy < seq {
					t.Fatalf("%s: lost work: busy=%v seq=%v", sh.label, busy, seq)
				}
				if r.Makespan <= prev {
					t.Fatalf("%s (%v) should take longer than the shape before it (%v)", sh.label, r.Makespan, prev)
				}
				prev = r.Makespan
			}
		})
	}
}

func TestExecuteDAGDeterministic(t *testing.T) {
	g := dagGraph(t, [][2]string{{"a", "b"}}, nil, "a", "b")
	bind := func(name string) OpSpec { return irregularSpec(512, 5) }
	cfg := machine.DefaultConfig(64)
	r1, _ := RunGraph(cfg, g, bind, RunOpts{Processors: 64, Mode: ModeSplit})
	r2, _ := RunGraph(cfg, g, bind, RunOpts{Processors: 64, Mode: ModeSplit})
	if r1.Makespan != r2.Makespan || r1.Steals != r2.Steals {
		t.Fatal("DAG execution not deterministic")
	}
}

func TestExecuteDAGInvalidGraph(t *testing.T) {
	g := delirium.NewGraph("bad")
	_ = g.AddNode(&delirium.Node{Name: "a"})
	g.AddEdge(&delirium.Edge{From: "a", To: "ghost"})
	if _, err := RunGraph(machine.DefaultConfig(4), g, func(string) OpSpec {
		return uniformSpec(4, 1)
	}, RunOpts{Processors: 4, Mode: ModeSplit}); err == nil {
		t.Fatal("invalid graph accepted")
	}
}
