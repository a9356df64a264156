package search

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"orchestra/internal/machine"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
	"orchestra/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// originOf adapts an application's part metadata to the search Origin.
func originOf(app *workload.App) Origin {
	return func(part string) string {
		if p, ok := app.PartOrigin(part); ok {
			return p.Phase
		}
		return part
	}
}

// partsOf builds the phase → part-operators map the model needs to
// pool statistics for merged phases.
func partsOf(app *workload.App) map[string][]string {
	out := map[string][]string{}
	for _, nd := range app.SplitGraph.Nodes {
		if p, ok := app.PartOrigin(nd.Name); ok && p.Phase != nd.Name {
			out[p.Phase] = append(out[p.Phase], nd.Name)
		}
	}
	return out
}

// profileApp runs the application's fully split graph on the simulator
// with tracing and distills the profile, the way orchrun -autosplit
// does.
func profileApp(t *testing.T, app *workload.App, p int) *Profile {
	t.Helper()
	cfg := machine.DefaultConfig(p)
	var col obs.Collector
	if _, err := rts.RunGraph(cfg, app.SplitGraph, app.Bind, rts.RunOpts{
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

func TestFromTraceCoversSplitOperators(t *testing.T) {
	app := workload.Psirrfan(workload.Config{N: 512, Seed: 7})
	prof := profileApp(t, app, 4)
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

func TestMergedPoolsExactly(t *testing.T) {
	// Two parts with known per-sample statistics: pooled mean/variance
	// must equal the union's.
	a := []float64{1, 2, 3, 4}
	b := []float64{10, 12}
	mk := func(name string, xs []float64) *OpProfile {
		mu, m2 := 0.0, 0.0
		for i, x := range xs {
			d := x - mu
			mu += d / float64(i+1)
			m2 += d * (x - mu)
		}
		return &OpProfile{Name: name, Tasks: len(xs), Mu: mu, Sigma: math.Sqrt(m2 / float64(len(xs)))}
	}
	got := Merged("all", mk("a", a), mk("b", b))
	want := mk("all", append(append([]float64{}, a...), b...))
	if math.Abs(got.Mu-want.Mu) > 1e-12 || math.Abs(got.Sigma-want.Sigma) > 1e-12 {
		t.Fatalf("pooled (μ=%g σ=%g), want (μ=%g σ=%g)", got.Mu, got.Sigma, want.Mu, want.Sigma)
	}
}

func TestHybridCandidatesPsirrfan(t *testing.T) {
	app := workload.Psirrfan(workload.Config{N: 256, Seed: 1})
	cands, err := HybridCandidates(app.SeqGraph, app.SplitGraph, originOf(app))
	if err != nil {
		t.Fatal(err)
	}
	// Structural space: ∅ (seq), {proj}, {output}, {proj,output}
	// (split). The update→outD pipelined edge survives in {output} and
	// {proj,output}, each contributing an extra no-pipe variant: 6.
	if len(cands) != 6 {
		for _, c := range cands {
			t.Logf("  %s (degree %d)", c.ID, c.Degree)
		}
		t.Fatalf("psirrfan hybrid space has %d candidates, want 6", len(cands))
	}
	byID := map[string]Candidate{}
	for _, c := range cands {
		byID[c.ID] = c
	}
	seq, ok := byID["seq"]
	if !ok {
		t.Fatal("no seq candidate")
	}
	if seq.Graph != app.SeqGraph || seq.Degree != 0 {
		t.Fatalf("seq candidate should be the literal sequential graph at degree 0")
	}
	split, ok := byID["split"]
	if !ok {
		t.Fatal("no split candidate")
	}
	if split.Graph != app.SplitGraph {
		t.Fatal("split candidate should be the literal split graph")
	}

	// The proj-only hybrid keeps projPre/projI but merges the output
	// phase back; its edges into the merged operator lose pipelining.
	h, ok := byID["split[proj]"]
	if !ok {
		t.Fatal("no split[proj] candidate")
	}
	wantNodes := []string{"projPre", "projI", "update", "output"}
	if len(h.Graph.Nodes) != len(wantNodes) {
		t.Fatalf("split[proj] has %d nodes, want %d", len(h.Graph.Nodes), len(wantNodes))
	}
	for _, n := range wantNodes {
		if h.Graph.Node(n) == nil {
			t.Fatalf("split[proj] missing node %q", n)
		}
	}
	for _, e := range h.Graph.Edges {
		if e.To == "output" && (e.Pipelined || e.Chain) {
			t.Fatalf("edge %s>%s into merged phase kept scheduling attributes", e.From, e.To)
		}
	}
	if err := h.Graph.Validate(); err != nil {
		t.Fatalf("split[proj] does not validate: %v", err)
	}

	// The output-only hybrid merges proj back; update still pipes into
	// outD, so its no-pipe ablation must exist too.
	h2, ok := byID["split[output]"]
	if !ok {
		t.Fatal("no split[output] candidate")
	}
	pipelined := 0
	for _, e := range h2.Graph.Edges {
		if e.Pipelined {
			pipelined++
		}
	}
	if pipelined != 1 {
		t.Fatalf("split[output] keeps %d pipelined edges, want 1", pipelined)
	}
	if _, ok := byID["split[output]-nopipe[update>outD]"]; !ok {
		t.Fatal("missing the no-pipe ablation of split[output]")
	}
}

// TestHybridCandidatesCoverEveryTask executes every hybrid program:
// whichever subset of rewrites a candidate keeps, and whichever edges
// it un-pipelines, running its graph must execute each task of each
// original phase exactly once. Part operators map their indices back
// to the phase through the workload's part metadata, so structurally
// different graphs fill the same counters.
func TestHybridCandidatesCoverEveryTask(t *testing.T) {
	const p = 4
	for _, app := range workload.All(256, 11) {
		cands, err := HybridCandidates(app.SeqGraph, app.SplitGraph, originOf(app))
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		for _, c := range cands {
			counts := map[string][]int{}
			for _, ph := range app.Phases() {
				counts[ph] = make([]int, app.Bind(ph).Op.N)
			}
			bind := func(name string) rts.OpSpec {
				spec := app.Bind(name)
				part, ok := app.PartOrigin(name)
				if !ok {
					part = workload.Part{Phase: name}
				}
				base := spec.Op.Time
				spec.Op.Time = func(i int) float64 {
					o := i
					if part.Index != nil {
						o = part.Index[i]
					}
					counts[part.Phase][o]++
					return base(i)
				}
				spec.Op.TimeRange = nil // fused chunks would bypass the counter
				return spec
			}
			if _, err := rts.RunGraph(machine.DefaultConfig(p), c.Graph, bind,
				rts.RunOpts{Processors: p, Mode: rts.ModeSplit}); err != nil {
				t.Fatalf("%s/%s: %v", app.Name, c.ID, err)
			}
			for ph, cnt := range counts {
				for i, n := range cnt {
					if n != 1 {
						t.Fatalf("%s/%s: task %s[%d] executed %d times, want 1", app.Name, c.ID, ph, i, n)
					}
				}
			}
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
// split transformation is empty and the search must emit the
// sequential program rather than pay the split graph's bookkeeping.
func TestSearchKeepsSeqOnOneWorker(t *testing.T) {
	app := workload.Psirrfan(workload.Config{N: 1024, Seed: 11})
	prof := profileApp(t, app, 1)
	cands, err := HybridCandidates(app.SeqGraph, app.SplitGraph, originOf(app))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Run(prof, cands, Options{P: 1, Parts: partsOf(app)})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Best.ID != "seq" {
		for _, s := range plan.Scores {
			t.Logf("  %-40s degree=%d model=%.3f validated=%.3f chosen=%v", s.ID, s.Degree, s.Model, s.Validated, s.Chosen)
		}
		t.Fatalf("one-worker psirrfan search chose %q, want the sequential program", plan.Best.ID)
	}
}

// TestSearchAdoptsSplitWhenProfitable: with enough workers the split
// transformation's overlap pays for itself — on climate at 32 workers
// the dry-run gain is ~12%, far past the adoption margin — and the
// search must not flatten the program back to the phase chain.
func TestSearchAdoptsSplitWhenProfitable(t *testing.T) {
	app := workload.Climate(workload.Config{N: 1024, Seed: 11})
	prof := profileApp(t, app, 32)
	cands, err := HybridCandidates(app.SeqGraph, app.SplitGraph, originOf(app))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Run(prof, cands, Options{P: 32, Parts: partsOf(app)})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Best.Degree == 0 {
		for _, s := range plan.Scores {
			t.Logf("  %-40s degree=%d model=%.3f validated=%.3f chosen=%v", s.ID, s.Degree, s.Model, s.Validated, s.Chosen)
		}
		t.Fatalf("32-worker climate search chose %q; expected some of the transformation to survive", plan.Best.ID)
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
			prof := profileApp(t, app, p)
			cands, err := HybridCandidates(app.SeqGraph, app.SplitGraph, originOf(app))
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Run(prof, cands, Options{P: p, Parts: partsOf(app)})
			if err != nil {
				t.Fatalf("%s p=%d: %v", app.Name, p, err)
			}
			got[fmt.Sprintf("%s/p%d", app.Name, p)] = plan.Best.ID
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
