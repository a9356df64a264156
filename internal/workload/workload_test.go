package workload

import (
	"math"
	"testing"
)

func TestAllAppsWellFormed(t *testing.T) {
	for _, app := range All(800, 3) {
		if err := app.SeqGraph.Validate(); err != nil {
			t.Errorf("%s seq graph: %v", app.Name, err)
		}
		if err := app.SplitGraph.Validate(); err != nil {
			t.Errorf("%s split graph: %v", app.Name, err)
		}
		// Every node in both graphs must bind.
		for _, g := range []interface{ NodeNames() []string }{} {
			_ = g
		}
		for _, n := range app.SeqGraph.Nodes {
			if app.Bind(n.Name).Op.N == 0 {
				t.Errorf("%s: op %s empty", app.Name, n.Name)
			}
		}
		for _, n := range app.SplitGraph.Nodes {
			spec := app.Bind(n.Name)
			if spec.Op.N == 0 {
				t.Errorf("%s: split op %s empty", app.Name, n.Name)
			}
			if spec.Op.Hint == nil {
				t.Errorf("%s: op %s missing cost hint", app.Name, n.Name)
			}
			if spec.Mu <= 0 {
				t.Errorf("%s: op %s missing sampled stats", app.Name, n.Name)
			}
		}
	}
}

func TestWorkConservation(t *testing.T) {
	// The split program must perform the same task work as the
	// original: each split pair partitions its phase.
	type pair struct{ whole, indep, dep string }
	cases := map[string][]pair{
		"psirrfan": {{"proj", "projI", "projPre"}, {"output", "outI", "outD"}},
		"climate":  {{"dynamics", "dynI", "dynPre"}, {"rad", "radI", "radD"}},
		"emu":      {{"fan", "fanI", "fanD"}},
		"vortex":   {{"tree", "treeI", "treePre"}, {"move", "moveI", "moveD"}},
	}
	for _, app := range All(1000, 11) {
		for _, pr := range cases[app.Name] {
			whole := app.Bind(pr.whole).Op
			i := app.Bind(pr.indep).Op
			d := app.Bind(pr.dep).Op
			if i.N+d.N != whole.N {
				t.Errorf("%s %s: %d + %d != %d tasks", app.Name, pr.whole, i.N, d.N, whole.N)
			}
			if diff := math.Abs(i.TotalTime() + d.TotalTime() - whole.TotalTime()); diff > 1e-9 {
				t.Errorf("%s %s: work differs by %v", app.Name, pr.whole, diff)
			}
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a := Climate(Config{N: 500, Seed: 42})
	b := Climate(Config{N: 500, Seed: 42})
	c := Climate(Config{N: 500, Seed: 43})
	sameAsA := 0
	for i := 0; i < 500; i++ {
		if a.Bind("cloud").Op.Time(i) != b.Bind("cloud").Op.Time(i) {
			t.Fatal("same seed gave different workload")
		}
		if a.Bind("cloud").Op.Time(i) == c.Bind("cloud").Op.Time(i) {
			sameAsA++
		}
	}
	if sameAsA > 450 {
		t.Fatal("different seeds gave near-identical workload")
	}
}

func TestIrregularityStructure(t *testing.T) {
	app := Climate(Config{N: 2000, Seed: 5})
	cloud := app.Bind("cloud")
	dyn := app.Bind("dynamics")
	// Cloud physics must be far more variable than dynamics.
	if cloud.Sigma/cloud.Mu < 4*(dyn.Sigma/dyn.Mu) {
		t.Fatalf("cloud cv %v not much larger than dynamics cv %v",
			cloud.Sigma/cloud.Mu, dyn.Sigma/dyn.Mu)
	}
}

func TestVortexClustering(t *testing.T) {
	app := Vortex(Config{N: 2000, Seed: 9})
	vel := app.Bind("vel").Op
	// Costs must be spatially clustered: adjacent-pair correlation of
	// "is expensive" should far exceed the independent-mask baseline.
	expensive := func(i int) bool { return vel.Time(i) > 2 }
	both, exp := 0, 0
	for i := 0; i+1 < vel.N; i++ {
		if expensive(i) {
			exp++
			if expensive(i + 1) {
				both++
			}
		}
	}
	if exp == 0 {
		t.Fatal("no expensive particles")
	}
	condProb := float64(both) / float64(exp)
	baseRate := float64(exp) / float64(vel.N)
	if condProb < 3*baseRate {
		t.Fatalf("clustering too weak: P(exp|exp)=%v base=%v", condProb, baseRate)
	}
}

func TestHintsTrackTimes(t *testing.T) {
	app := Psirrfan(Config{N: 1000, Seed: 2})
	op := app.Bind("update").Op
	for i := 0; i < op.N; i++ {
		h, tt := op.Hint(i), op.Time(i)
		if h < 0.85*tt || h > 1.15*tt {
			t.Fatalf("hint %v too far from time %v at %d", h, tt, i)
		}
	}
}

func TestSeqTime(t *testing.T) {
	app := EMU(Config{N: 500, Seed: 1})
	want := app.Bind("eval").Op.TotalTime() + app.Bind("fan").Op.TotalTime()
	if math.Abs(app.SeqTime()-want) > 1e-9 {
		t.Fatalf("SeqTime = %v, want %v", app.SeqTime(), want)
	}
}

func TestBindPanicsOnUnknown(t *testing.T) {
	app := EMU(Config{N: 100, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Bind of unknown op did not panic")
		}
	}()
	app.Bind("nonsense")
}
