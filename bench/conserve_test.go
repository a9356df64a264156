package main

import (
	"reflect"
	"runtime"
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/workload"
)

// The sequential graph, the split graph on one worker and the split
// graph on P workers must execute the same multiset of original tasks:
// every one exactly once.
func TestConservingCoverage(t *testing.T) {
	app := workload.Psirrfan(workload.Config{N: 256, Seed: 7})
	p := min(runtime.NumCPU(), 4)
	runs := []struct {
		name    string
		g       *delirium.Graph
		workers int
		mode    rts.Mode
	}{
		{"seq", app.SeqGraph, 1, rts.ModeTaper},
		{"split@1", app.SplitGraph, 1, rts.ModeSplit},
		{"split@P", app.SplitGraph, p, rts.ModeSplit},
	}
	var first map[string][]int32
	for _, r := range runs {
		cov := newCoverage(app)
		bound := rts.BindClosure(conserving(app, cov, 10))
		if _, err := (native.Backend{}).Run(r.g, bound, rts.RunOpts{Processors: r.workers, Mode: r.mode}); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if err := cov.err(1); err != nil {
			t.Errorf("%s: %v", r.name, err)
		}
		if first == nil {
			first = cov.counts
		} else if !reflect.DeepEqual(first, cov.counts) {
			t.Errorf("%s: coverage differs from seq", r.name)
		}
	}
}

func TestCoverageCatchesARepeat(t *testing.T) {
	app := workload.Psirrfan(workload.Config{N: 16, Seed: 7})
	cov := newCoverage(app)
	spec := conserving(app, cov, 1)("update")
	for i := 0; i < spec.Op.N; i++ {
		spec.Op.Time(i)
	}
	spec.Op.Time(3)
	if cov.err(1) == nil {
		t.Error("a task executed twice was not reported")
	}
}
