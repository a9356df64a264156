package native_test

import (
	"testing"

	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/workload"
)

// firstRelease completes the operators before prod whole, then prod one
// task at a time, and returns the prefix of prod at which cons first has
// tasks enabled: the batch of the pipelined edge prod → cons when that
// is cons's only producer still running. f is started.
func firstRelease(t *testing.T, f *rts.Frontier, prod, cons string) int {
	t.Helper()
	var pr rts.Progress
	p, c := f.Index(prod), f.Index(cons)
	for op := 0; op < p; op++ {
		f.Complete(op, 0, f.N(op), &pr)
	}
	for q := 1; q <= f.N(p); q++ {
		f.Complete(p, q-1, q, &pr)
		if f.Enabled(c) > 0 {
			return q
		}
	}
	t.Fatalf("%s never released %s", prod, cons)
	return 0
}

// TestPipelinedBatchAtTwoWorkers pins native's batch at P = 2 on
// Psirrfan's split graph, bound as the native-coarse benchmark binds it
// (the workload's own specs) and as the array kernels bind it: ⌊n/16⌋
// of the producer's tasks, which at P = 2 is n/(8p), the batch the
// benchmark's native schedules are measured with.
func TestPipelinedBatchAtTwoWorkers(t *testing.T) {
	app := workload.Psirrfan(workload.Config{N: 1024, Seed: 1})
	params := rts.KernelParams{}
	params.SetInt("n", 16384)
	arr, err := rts.Bind(app.SplitGraph, rts.NamedBinding("array", params))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		bind rts.Binder
		want int
	}{
		{"workload", app.Bind, 1024 / 16},
		{"array", arr.Binder(), 16384 / 16},
	} {
		f, err := native.EngineFrontier(app.SplitGraph, c.bind, 2)
		if err != nil {
			t.Fatal(err)
		}
		var pr rts.Progress
		f.Start(&pr)
		if got := firstRelease(t, f, "update", "outD"); got != c.want {
			t.Errorf("%s: update → outD batch %d, want %d", c.name, got, c.want)
		}
	}
}
