package native_test

import (
	"math"
	"strings"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/delirium"
	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/stats"
)

// runTasks executes the operators of order one after another, every
// task alone through Time(i), and returns each task's reported cost.
func runTasks(order []*delirium.Node, bind rts.Binder) map[string][]float64 {
	costs := map[string][]float64{}
	for _, nd := range order {
		op := bind(nd.Name).Op
		c := make([]float64, op.N)
		for i := range c {
			c[i] = op.Time(i)
		}
		costs[nd.Name] = c
	}
	return costs
}

// runCuts executes the operators of order one after another, each cut
// into random pieces that run in random order, a piece either through
// TimeRange(lo, hi) or task by task through Time(i). Every report must
// equal, bit for bit, the in-order sum of the same tasks' costs in ref.
func runCuts(t *testing.T, order []*delirium.Node, bind rts.Binder, rng *stats.RNG, ref map[string][]float64) {
	t.Helper()
	for _, nd := range order {
		op := bind(nd.Name).Op
		var pieces [][2]int
		for lo := 0; lo < op.N; {
			hi := min(op.N, lo+1+rng.Intn(1+rng.Intn(op.N)))
			pieces = append(pieces, [2]int{lo, hi})
			lo = hi
		}
		for _, k := range rng.Perm(len(pieces)) {
			lo, hi := pieces[k][0], pieces[k][1]
			want := 0.0
			for i := lo; i < hi; i++ {
				want += ref[nd.Name][i]
			}
			got := 0.0
			if rng.Intn(2) == 0 {
				got = op.TimeRange(lo, hi)
			} else {
				for i := lo; i < hi; i++ {
					got += op.Time(i)
				}
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s [%d, %d): reported %v, the tasks report %v", nd.Name, lo, hi, got, want)
			}
		}
	}
}

// TestKernelRangeMatchesTasks: a kernel is one range body and Time(i)
// is its one-task range, so any mix of ranges and single tasks over any
// cuts must leave the memory image an all-per-task run leaves, and
// report the same costs. The "array" digests were recorded from the
// kernels' earlier hand-written per-task bodies, so they pin the values
// as well as the agreement of the two forms.
func TestKernelRangeMatchesTasks(t *testing.T) {
	out, err := core.CompileSource(quickstartProgram, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	order, err := out.Graph.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(27)
	t.Run("array", func(t *testing.T) {
		for _, c := range []struct {
			n    int
			want string
		}{
			{1, "7f05b4341a3709d1f4e2a7c13087efdc83d0b0056993292005809d2f560d74bc"},
			{7, "c7e8468f48c3ac5acabd63115997e2a1ef89d33529793127e279add5b32a98a6"},
			{4096, "84c9964e845a90f31a376e91bbc2c418883f5c69a684ddce18188be10d41c84b"},
		} {
			bind, st, err := native.ArrayKernels(out.Graph, c.n, 2)
			if err != nil {
				t.Fatal(err)
			}
			ref := runTasks(order, bind)
			want := native.StateDigest(st)
			if want != c.want {
				t.Errorf("n=%d: per-task digest %s, want %s", c.n, want, c.want)
			}
			for round := 0; round < 4; round++ {
				bind, st, _ := native.ArrayKernels(out.Graph, c.n, 2)
				runCuts(t, order, bind, rng, ref)
				if got := native.StateDigest(st); got != want {
					t.Fatalf("n=%d round %d: mixed cuts digest %s, per-task %s", c.n, round, got, want)
				}
			}
		}
	})
	t.Run("spin", func(t *testing.T) {
		for _, n := range []int{1, 7, 4096} {
			bind := native.SpinBinder(out.Graph, func(*delirium.Node) int { return n }, 1.0, 5, 1)
			ref := runTasks(order, bind)
			for _, nd := range order {
				op := bind(nd.Name).Op
				for i, c := range ref[nd.Name] {
					if math.Float64bits(c) != math.Float64bits(op.Hint(i)) {
						t.Fatalf("n=%d %s task %d: Time reports %v, its drawn time is %v", n, nd.Name, i, c, op.Hint(i))
					}
				}
			}
			for round := 0; round < 4; round++ {
				runCuts(t, order, bind, rng, ref)
			}
		}
	})
}

// TestResolveTasks pins trip-count resolution, including annotations
// whose value no int holds: those must resolve to !ok rather than to
// whatever the float conversion yields.
func TestResolveTasks(t *testing.T) {
	for _, c := range []struct {
		expr string
		want int
		ok   bool
	}{
		{"n", 2048, true},
		{"n-1", 2047, true},
		{"n/2", 1024, true},
		{"n*n*n*n*n", 1 << 55, true},
		{"-n", -2048, true},
		{"n-2048", 0, true},
		{"n/0", 0, false},
		{"n+", 0, false},
		{"n*n*n*n*n*n", 0, false},                  // 2^66
		{"n*n*n*n*n*n*n", 0, false},                // 2^77
		{"n-n*n*n*n*n*n*n", 0, false},              // −2^77
		{strings.Repeat("n*", 99) + "n", 0, false}, // +Inf
	} {
		got, ok := native.ResolveTasks(c.expr, 2048)
		if got != c.want || ok != c.ok {
			t.Errorf("ResolveTasks(%.40q, 2048) = (%d, %v), want (%d, %v)", c.expr, got, ok, c.want, c.ok)
		}
	}
}

// TestTaskCount pins the synthetic kernels' per-node count: an
// annotation that resolves to zero is a zero-task operator, one that
// does not resolve falls back to the tasks parameter, and a negative
// count is refused with an error naming the node.
func TestTaskCount(t *testing.T) {
	params := rts.KernelParams{}
	params.SetInt("tasks", 7)
	params.SetInt("n", 4)
	for _, c := range []struct {
		tasks string
		want  int
		err   bool
	}{
		{"", 7, false},
		{"n", 4, false},
		{"n-4", 0, false},
		{"n/0", 7, false},
		{"n-5", 0, true},
		{"-n", 0, true},
	} {
		g := delirium.NewGraph("g")
		if err := g.AddNode(&delirium.Node{Name: "z", Kind: delirium.Par, Tasks: c.tasks}); err != nil {
			t.Fatal(err)
		}
		count, err := native.TaskCount(params, g)
		if c.err {
			if err == nil || !strings.Contains(err.Error(), "node z") {
				t.Errorf("tasks=%q: error %v, want a refusal naming node z", c.tasks, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("tasks=%q: %v", c.tasks, err)
		} else if got := count(g.Nodes[0]); got != c.want {
			t.Errorf("tasks=%q: %d tasks, want %d", c.tasks, got, c.want)
		}
	}
}
