package experiment

import (
	"testing"

	"orchestra/internal/rts"
	"orchestra/internal/trace"
	"orchestra/internal/workload"
)

// The experiment tests assert the qualitative claims of the paper's
// evaluation at reduced scale (so the suite stays fast); the full-scale
// numbers are regenerated by cmd/orchbench.

func TestFigure6Shape(t *testing.T) {
	series := Figure6(2048, 7, []int{128, 512})
	get := func(label string, x float64) trace.Result {
		for _, s := range series {
			if s.Label != label {
				continue
			}
			for i, sx := range s.X {
				if sx == x {
					return s.Points[i]
				}
			}
		}
		t.Fatalf("missing %s@%v", label, x)
		return trace.Result{}
	}
	// TAPER beats static at every scale.
	for _, p := range []float64{128, 512} {
		if get("TAPER", p).Speedup() <= get("static", p).Speedup() {
			t.Errorf("TAPER should beat static at p=%v", p)
		}
	}
	// At 512 (4 tasks/processor for n=2048) split is at least
	// competitive with TAPER and clearly ahead of static.
	if get("TAPER+split", 512).Speedup() < 0.95*get("TAPER", 512).Speedup() {
		t.Errorf("split fell behind TAPER at 512: %v vs %v",
			get("TAPER+split", 512).Speedup(), get("TAPER", 512).Speedup())
	}
	if get("TAPER+split", 512).Speedup() <= get("static", 512).Speedup() {
		t.Error("split should beat static at 512")
	}
	// Static's scaling from 128 to 512 is clearly sublinear.
	staticScaling := get("static", 512).Speedup() / get("static", 128).Speedup()
	taperScaling := get("TAPER", 512).Speedup() / get("TAPER", 128).Speedup()
	if staticScaling >= taperScaling {
		t.Errorf("static scaled better than TAPER: %v vs %v", staticScaling, taperScaling)
	}
}

func TestTable1Shape(t *testing.T) {
	rows := Table1(3200, 7)
	t512 := rows[0].Result
	t1024 := rows[1].Result
	s1024 := rows[2].Result
	// The efficiency collapse from 512 to 1024 without split.
	if t1024.Efficiency() >= t512.Efficiency()-0.05 {
		t.Errorf("no TAPER collapse: %v -> %v", t512.Efficiency(), t1024.Efficiency())
	}
	// Split recovers most of it.
	if s1024.Efficiency() < t1024.Efficiency()+0.08 {
		t.Errorf("split did not recover: %v vs %v", s1024.Efficiency(), t1024.Efficiency())
	}
	// Absolute bands (generous): TAPER@512 in [70%, 95%], TAPER@1024 in
	// [45%, 70%], split@1024 in [65%, 95%].
	checks := []struct {
		name   string
		eff    float64
		lo, hi float64
	}{
		{"TAPER@512", t512.Efficiency(), 0.70, 0.95},
		{"TAPER@1024", t1024.Efficiency(), 0.45, 0.70},
		{"split@1024", s1024.Efficiency(), 0.65, 0.95},
	}
	for _, c := range checks {
		if c.eff < c.lo || c.eff > c.hi {
			t.Errorf("%s = %.1f%%, want within [%v, %v]", c.name, 100*c.eff, 100*c.lo, 100*c.hi)
		}
	}
	// Split speedup exceeds the unsplit speedup at 1024 by a wide
	// margin (paper: 850 vs 581).
	if s1024.Speedup() < 1.15*t1024.Speedup() {
		t.Errorf("split speedup %v vs TAPER %v", s1024.Speedup(), t1024.Speedup())
	}
}

func TestTable2Band(t *testing.T) {
	rows := Table2(3200, 7, 512)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's claim: doubling processors loses five to fifteen
		// percent efficiency. Allow a small tolerance around the band.
		if r.LossPoints < -2 || r.LossPoints > 18 {
			t.Errorf("%s: doubling loss %.1f points outside band", r.App, r.LossPoints)
		}
		if r.EffAtP <= 0 || r.EffAt2P <= 0 {
			t.Errorf("%s: non-positive efficiency", r.App)
		}
	}
}

func TestAblationCostFunction(t *testing.T) {
	with, without := AblationCostFunction(4096, 256, 7)
	// On the spatially clustered vortex velocity op, the cost function
	// must not hurt, and should generally help.
	if with.Makespan > 1.05*without.Makespan {
		t.Errorf("cost function hurt: %v vs %v", with.Makespan, without.Makespan)
	}
}

func TestAblationAllocation(t *testing.T) {
	iterative, naive := AblationAllocation(3200, 512, 7)
	// The iterative allocation must beat (or at worst match) the naive
	// half/half split for this very asymmetric pair.
	if iterative.Makespan > 1.02*naive.Makespan {
		t.Errorf("iterative allocation worse than naive: %v vs %v",
			iterative.Makespan, naive.Makespan)
	}
}

func TestAblationDistributed(t *testing.T) {
	distributed, central := AblationDistributed(4096, 512, 7)
	// The distributed algorithm avoids the central queue's round trips.
	if distributed.Makespan >= central.Makespan {
		t.Errorf("distributed (%v) should beat central (%v)",
			distributed.Makespan, central.Makespan)
	}
	if distributed.Messages >= central.Messages {
		t.Errorf("distributed should use fewer messages: %d vs %d",
			distributed.Messages, central.Messages)
	}
}

func TestAblationMaxCount(t *testing.T) {
	results := AblationMaxCount(3200, 512, 7, []int{0, 1, 4, 8})
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	// max_count=4 should be no worse than max_count=8 by more than a
	// small margin (the paper: four iterations suffice), and at least
	// as good as zero iterations — the half/half division, row 0.
	m0, m4, m8 := results[0].Makespan, results[2].Makespan, results[3].Makespan
	if m4 > 1.05*m8 {
		t.Errorf("max_count=4 (%v) much worse than 8 (%v)", m4, m8)
	}
	if m4 > 1.10*m0+1 && m4 > m0 {
		t.Errorf("allocation iterations hurt: %v vs %v", m4, m0)
	}
	// Zero iterations is the naive division AblationAllocation measures,
	// not Allocate's default bound.
	if _, naive := AblationAllocation(3200, 512, 7); m0 != naive.Makespan {
		t.Errorf("max_count=0 (%v) is not the half/half allocation (%v)", m0, naive.Makespan)
	}
}

func TestRunAppModes(t *testing.T) {
	for _, mode := range []rts.Mode{rts.ModeStatic, rts.ModeTaper, rts.ModeSplit} {
		for _, app := range workload.All(1024, 3) {
			r := RunApp(app, 64, mode)
			if r.Makespan <= 0 || r.SeqTime <= 0 {
				t.Errorf("%s/%v: empty result %+v", app.Name, mode, r)
			}
			if r.Efficiency() > 1.001 {
				t.Errorf("%s/%v: impossible efficiency %v", app.Name, mode, r.Efficiency())
			}
		}
	}
}

func TestPoliciesOrdering(t *testing.T) {
	rows := Policies(4096, 512, 7)
	get := func(name string) trace.Result {
		for _, r := range rows {
			if r.Policy == name {
				return r.Result
			}
		}
		t.Fatalf("missing policy %s", name)
		return trace.Result{}
	}
	// On irregular work the adaptive policies beat static, and TAPER
	// beats GSS (whose early chunks are too large to rebalance).
	if get("TAPER").Makespan >= get("static").Makespan {
		t.Fatal("TAPER lost to static")
	}
	if get("TAPER").Makespan >= get("GSS").Makespan {
		t.Fatal("TAPER lost to GSS")
	}
	if get("factoring").Makespan >= get("static").Makespan {
		t.Fatal("factoring lost to static")
	}
}
