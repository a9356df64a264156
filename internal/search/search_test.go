package search

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/machine"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
	"orchestra/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// profileGraph runs g on the simulator with tracing and distills the
// profile, the way orchrun -autosplit does.
func profileGraph(t *testing.T, g *delirium.Graph, bind rts.Binder, p int) *Profile {
	t.Helper()
	cfg := machine.DefaultConfig(p)
	var col obs.Collector
	if _, err := rts.RunGraph(cfg, g, bind, rts.RunOpts{
		Processors: p, Mode: rts.ModeSplit, Sink: &col,
	}); err != nil {
		t.Fatalf("profiling run: %v", err)
	}
	prof, err := FromTrace(col.Trace, 0)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	return prof
}

// searchApp profiles the application's split graph at p workers and
// searches its edge-attribute space, the call every production caller
// makes.
func searchApp(t *testing.T, app *workload.App, p int) *Plan {
	t.Helper()
	prof := profileGraph(t, app.SplitGraph, app.Bind, p)
	plan, err := Run(prof, GraphCandidates(app.SplitGraph), Options{P: p})
	if err != nil {
		t.Fatalf("%s p=%d: %v", app.Name, p, err)
	}
	return plan
}

func logScores(t *testing.T, plan *Plan) {
	t.Helper()
	for _, s := range plan.Scores {
		t.Logf("  %-40s degree=%d model=%.3f validated=%.3f chosen=%v", s.ID, s.Degree, s.Model, s.Validated, s.Chosen)
	}
}

func TestFromTraceCoversSplitOperators(t *testing.T) {
	app := workload.Psirrfan(workload.Config{N: 512, Seed: 7})
	prof := profileGraph(t, app.SplitGraph, app.Bind, 4)
	total := 0
	for _, nd := range app.SplitGraph.Nodes {
		op := prof.Op(nd.Name)
		if op == nil || op.Tasks == 0 {
			t.Fatalf("profile missing operator %q", nd.Name)
		}
		total += op.Tasks
	}
	// projPre+projI and outI+outD each cover n tasks; update covers n.
	if want := 3 * 512; total != want {
		t.Fatalf("profiled %d tasks, want %d", total, want)
	}
	if prof.ChunkOverhead <= 0 {
		t.Fatalf("expected a positive measured chunk overhead, got %g", prof.ChunkOverhead)
	}
}

// TestFromTraceDeterministic: the measured per-chunk overhead is a
// difference of two nearly equal sums, so it must not depend on map
// iteration order. On one worker memchain's idle time is ~0 and the
// sum order alone would flip the overhead between 0 and positive. The
// simulator is deterministic, so every run yields the same trace.
func TestFromTraceDeterministic(t *testing.T) {
	g, bound := memchain(t)
	want := profileGraph(t, g, bound.Binder(), 1).ChunkOverhead
	for i := 0; i < 30; i++ {
		if got := profileGraph(t, g, bound.Binder(), 1).ChunkOverhead; got != want {
			t.Fatalf("chunk overhead %v, then %v from the same run", want, got)
		}
	}
}

func TestGraphCandidatesOnlyWeaken(t *testing.T) {
	app := workload.EMU(workload.Config{N: 128, Seed: 3})
	cands := GraphCandidates(app.SplitGraph)
	if len(cands) < 2 {
		t.Fatalf("expected the as-is graph plus at least one weakening, got %d", len(cands))
	}
	for _, c := range cands {
		if len(c.Graph.Nodes) != len(app.SplitGraph.Nodes) || len(c.Graph.Edges) != len(app.SplitGraph.Edges) {
			t.Fatalf("%s changed the node or edge set", c.ID)
		}
		for i, e := range c.Graph.Edges {
			orig := app.SplitGraph.Edges[i]
			if e.Pipelined && !orig.Pipelined || e.Chain && !orig.Chain {
				t.Fatalf("%s strengthened edge %s>%s", c.ID, e.From, e.To)
			}
		}
	}
}

// TestSearchKeepsSeqOnOneWorker is the one-worker regression test:
// with one worker nothing overlaps, so the profitable subset of the
// edge attributes is empty and the search must emit the graph with
// every pipelined and chained edge turned off rather than pay their
// delivery bookkeeping.
func TestSearchKeepsSeqOnOneWorker(t *testing.T) {
	app := workload.Psirrfan(workload.Config{N: 1024, Seed: 11})
	plan := searchApp(t, app, 1)
	if plan.Best.Degree != 0 {
		logScores(t, plan)
		t.Fatalf("one-worker psirrfan search chose %q (degree %d), want the degree-0 candidate", plan.Best.ID, plan.Best.Degree)
	}
}

// memchain decodes examples/memchain.graph and binds its "lognormal"
// kernels as `orchrun -tasks 256` binds them on the simulator; every
// node's tasks=n annotation resolves with orchrun's default n.
func memchain(t *testing.T) (*delirium.Graph, *rts.Bound) {
	t.Helper()
	src, err := os.ReadFile("../../examples/memchain.graph")
	if err != nil {
		t.Fatal(err)
	}
	g, err := delirium.Decode(string(src))
	if err != nil {
		t.Fatal(err)
	}
	params := rts.KernelParams{}
	params.SetInt("tasks", 256)
	params.SetInt("n", 2048)
	bound, err := rts.Bind(g, rts.NamedBinding("lognormal", params))
	if err != nil {
		t.Fatal(err)
	}
	return g, bound
}

// TestSearchAdoptsSplitWhenProfitable: with enough workers pipelining
// pays for itself. memchain's four-stage streaming chain at 64 workers
// overlaps its stages, and the search must keep some of its pipelined
// edges rather than fall back to the barriered chain.
func TestSearchAdoptsSplitWhenProfitable(t *testing.T) {
	const p = 64
	g, bound := memchain(t)
	prof := profileGraph(t, g, bound.Binder(), p)
	plan, err := Run(prof, GraphCandidates(g), Options{P: p})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Best.Degree == 0 {
		logScores(t, plan)
		t.Fatalf("64-worker memchain search chose %q; expected some pipelining to survive", plan.Best.ID)
	}
}

// TestSearchGoldenReplay pins the searched plan for every workload at
// representative worker counts. The profiles are deterministic
// simulator runs, so a change here means the candidate space, the
// calibrated model or the adoption rule changed — review, then
// regenerate with -update.
func TestSearchGoldenReplay(t *testing.T) {
	got := map[string]string{}
	for _, app := range workload.All(1024, 11) {
		for _, p := range []int{1, 16, 64} {
			got[fmt.Sprintf("%s/p%d", app.Name, p)] = searchApp(t, app, p).Best.ID
		}
	}
	path := filepath.Join("testdata", "plans.golden.json")
	if *update {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]string, len(got))
		for _, k := range keys {
			ordered[k] = got[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: searched plan %q, golden %q", k, got[k], w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: not in golden (regenerate with -update)", k)
		}
	}
}
