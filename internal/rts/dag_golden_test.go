package rts_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/fault"
	"orchestra/internal/machine"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/stats"
	"orchestra/internal/trace"
	"orchestra/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

const dagGoldenFile = "testdata/dag_golden.json"

// dagGolden is everything a schedule decides, as exact bits: two runs
// with the same record made the same dispatch, steal and chunk-size
// decisions at the same simulated times.
type dagGolden struct {
	Makespan string `json:"makespan_bits"`
	Chunks   int    `json:"chunks"`
	Steals   int    `json:"steals"`
	Messages int    `json:"messages"`
	Busy     string `json:"busy_fnv1a"`
	// Events hashes the obs event stream; only the traced cases have it.
	Events string `json:"events_fnv1a,omitempty"`
}

// dagCase is one pinned run of the simulator's driver.
type dagCase struct {
	name  string
	p     int
	mode  rts.Mode
	fault string // fault plan; such a case is traced and its events pinned
	build func(t *testing.T) (*delirium.Graph, rts.Binder)
}

// fig6Apps builds the paper's Figure 6 / Table 1 applications at the
// sizes and seed the repository benchmark runs.
var fig6Apps = map[string]func() *workload.App{
	"psirrfan": func() *workload.App { return workload.Psirrfan(workload.Config{N: 4096, Seed: 7}) },
	"climate":  func() *workload.App { return workload.Climate(workload.Config{N: 3200, Seed: 7}) },
}

func appCase(name string, p int, mode rts.Mode, app func() *workload.App) dagCase {
	return dagCase{name: name, p: p, mode: mode, build: func(*testing.T) (*delirium.Graph, rts.Binder) {
		a := app()
		return a.GraphFor(mode, p), a.Bind
	}}
}

// faultCase is the golden fault case: a crash, a stall and a slow on an
// eight-processor hinted chain. Worker 5's crash trigger is reached by
// an idle re-scan, not by a chunk of its own — see
// TestSimFaultCrashOnIdleRescan.
var faultCase = dagCase{name: "hinted-chain-faults@8", p: 8, mode: rts.ModeSplit,
	fault: "crash:5@20,stall:1@2:40,slow:2@1:4", build: hintedChain}

// barrieredCase is c under a barriered mode, named after it.
func barrieredCase(c dagCase, mode rts.Mode) dagCase {
	c.name += "/" + mode.String()
	c.mode = mode
	return c
}

func dagCases() []dagCase {
	return []dagCase{
		appCase("psirrfan4096@512", 512, rts.ModeSplit, fig6Apps["psirrfan"]),
		appCase("climate3200@512", 512, rts.ModeSplit, fig6Apps["climate"]),
		{name: "nested-dc@64", p: 64, mode: rts.ModeSplit, build: func(t *testing.T) (*delirium.Graph, rts.Binder) {
			in, err := workload.NewDC(workload.NestedConfig{N: 4096, Branch: 3, Leaf: 64})
			if err != nil {
				t.Fatal(err)
			}
			return in.Graph, in.Binder()
		}},
		{name: "hinted-chain@1", p: 1, mode: rts.ModeSplit, build: hintedChain},
		{name: "hinted-chain@7", p: 7, mode: rts.ModeSplit, build: hintedChain},
		faultCase,
		appCase("psirrfan4096@512/static", 512, rts.ModeStatic, fig6Apps["psirrfan"]),
		appCase("psirrfan4096@512/TAPER", 512, rts.ModeTaper, fig6Apps["psirrfan"]),
		barrieredCase(faultCase, rts.ModeStatic),
		barrieredCase(faultCase, rts.ModeTaper),
	}
}

// hintedChain is a -> b -> c, the middle edge pipelined, every operator
// irregular with warm cost hints — so queues are expensive-first and
// chunks are not index-contiguous.
func hintedChain(t *testing.T) (*delirium.Graph, rts.Binder) {
	g := delirium.NewGraph("hinted-chain")
	for _, n := range []string{"a", "b", "c"} {
		if err := g.AddNode(&delirium.Node{Name: n, Kind: delirium.Par}); err != nil {
			t.Fatal(err)
		}
	}
	g.AddEdge(&delirium.Edge{From: "a", To: "b", Bytes: 8, PerTask: true})
	g.AddEdge(&delirium.Edge{From: "b", To: "c", Bytes: 8, PerTask: true, Pipelined: true})
	seeds := map[string]uint64{"a": 11, "b": 12, "c": 13}
	return g, func(name string) rts.OpSpec {
		rng := stats.NewRNG(seeds[name])
		times := make([]float64, 300)
		for i := range times {
			times[i] = 0.8
			if rng.Bernoulli(0.3) {
				times[i] = rng.Uniform(8, 16)
			}
		}
		s := rts.OpSpec{Op: sched.Op{
			Name: name, N: len(times), Bytes: 64,
			Time: func(i int) float64 { return times[i] },
			Hint: func(i int) float64 { return times[i] },
		}}
		s.SampleStats(128)
		return s
	}
}

// run executes the case; a fault case also returns its trace.
func (c dagCase) run(t *testing.T) (trace.Result, *obs.Trace) {
	t.Helper()
	g, bind := c.build(t)
	opts := rts.RunOpts{Processors: c.p, Mode: c.mode}
	var col obs.Collector
	if c.fault != "" {
		plan, err := fault.Parse(c.fault)
		if err != nil {
			t.Fatal(err)
		}
		opts.Fault, opts.Sink = plan, &col
	}
	res, err := rts.RunGraph(machine.DefaultConfig(c.p), g, bind, opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return res, col.Trace
}

func hashFloats(xs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashEvents covers every field of every event, in stream order.
func hashEvents(tr *obs.Trace) string {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, e := range tr.Events {
		word(uint64(e.Kind))
		for _, v := range []int32{e.Worker, e.Op, e.Lo, e.N, e.Arg} {
			word(uint64(uint32(v)))
		}
		for _, v := range []float64{e.T0, e.T1, e.V0, e.V1} {
			word(math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func goldenOf(res trace.Result, tr *obs.Trace) dagGolden {
	g := dagGolden{
		Makespan: fmt.Sprintf("%016x", math.Float64bits(res.Makespan)),
		Chunks:   res.Chunks, Steals: res.Steals, Messages: res.Messages,
		Busy: hashFloats(res.Busy),
	}
	if tr != nil {
		g.Events = hashEvents(tr)
	}
	return g
}

func readDAGGolden(t *testing.T) map[string]dagGolden {
	t.Helper()
	data, err := os.ReadFile(dagGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]dagGolden{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestDAGGoldenSchedules pins the simulator's barrier-free schedules
// bit for bit: the paper's two 512-processor cells, a nested
// application, a hinted chain on one and on seven processors, and a
// faulted run with its whole event stream. The file was recorded with
// the executor that scheduled one event per woken processor; any
// change to how rts/dag.go drives the event loop must reproduce it
// exactly. Regenerate with `go test ./internal/rts/ -run DAGGolden
// -update` only after an intentional scheduling change.
func TestDAGGoldenSchedules(t *testing.T) {
	got := map[string]dagGolden{}
	for _, c := range dagCases() {
		got[c.name] = goldenOf(c.run(t))
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dagGoldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDAGGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, the test %d", len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; g != w {
			t.Errorf("%s: schedule moved\n got %+v\nwant %+v", name, g, w)
		}
	}
}
