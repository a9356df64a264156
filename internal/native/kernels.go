package native

import (
	"fmt"
	"math"

	"orchestra/internal/delirium"
	"orchestra/internal/interp"
	"orchestra/internal/rts"
	"orchestra/internal/source"
)

// This file registers this package's kernel families into the
// process-wide rts.Kernels registry, so a serializable rts.Binding can
// name them and a dist worker process can rebuild them from the name
// alone. Three families cover the command-line tools' workloads:
//
//	"array"     — real array kernels over an interp.State memory image
//	              (ArrayKernels): durable numeric results, a digest,
//	              and Pack/Apply for cross-process transport.
//	              Params: n (tasks per op), work (eval rounds/task).
//	"spin"      — synthetic CPU-bound tasks with log-normal times
//	              (SpinBinder): measured backends spin for real.
//	              Params: tasks, n, cv, seed, unitwork.
//	"lognormal" — the same log-normal draws charged as modeled costs
//	              (no spinning): the simulator's synthetic workload.
//	              Params: tasks, n, cv, seed.
//
// The spin/lognormal task count per node comes from its tasks=
// annotation (a symbolic trip count such as "n-1", resolved with the
// n parameter) when present, else from tasks.

func init() {
	rts.Kernels.MustRegister("array", arrayKernel)
	rts.Kernels.MustRegister("spin", spinKernel)
	rts.Kernels.MustRegister("lognormal", lognormalKernel)
}

// arrayState is the per-run product of the "array" kernel family:
// every operator shares one memory image and one binder. Its reset
// zeroes the image.
type arrayState struct {
	bind rts.Binder
	st   *interp.State
}

// arrayKernel resolves one operator of the "array" family. The whole
// family builds once per BindEnv (the memory image is shared), so the
// per-op work is a map lookup.
func arrayKernel(env *rts.BindEnv, op string) (rts.OpSpec, error) {
	v, err := env.Memo("native.array", func() (any, error) {
		n := env.Params.Int("n", 2048)
		work := env.Params.Int("work", 1)
		bind, st, err := ArrayKernels(env.Graph, n, work)
		if err != nil {
			return nil, err
		}
		env.SetDigest(func() string { return StateDigest(st) })
		// ArrayKernels' executions start from zeroed arrays.
		env.SetReset(func() {
			for _, arr := range st.Arrays {
				clear(arr)
			}
		})
		return &arrayState{bind: bind, st: st}, nil
	})
	if err != nil {
		return rts.OpSpec{}, err
	}
	return v.(*arrayState).bind(op), nil
}

// spinKernel resolves one operator of the "spin" family. Its reset is a
// no-op.
func spinKernel(env *rts.BindEnv, op string) (rts.OpSpec, error) {
	v, err := env.Memo("native.spin", func() (any, error) {
		count, err := TaskCount(env.Params, env.Graph)
		if err != nil {
			return nil, err
		}
		bind := SpinBinder(env.Graph, count,
			env.Params.Float("cv", 1.0), env.Params.Uint64("seed", 1),
			env.Params.Int("unitwork", 4000))
		// A run only reads the drawn task times.
		env.SetReset(func() {})
		return bind, nil
	})
	if err != nil {
		return rts.OpSpec{}, err
	}
	return v.(rts.Binder)(op), nil
}

// lognormalKernel resolves one operator of the "lognormal" family:
// the same per-node log-normal draws as "spin", but returned as
// modeled costs without burning CPU — the simulator's synthetic
// workload, bit-compatible with what cmd/orchrun historically drew. It
// registers no reset: nothing reuses its bindings.
func lognormalKernel(env *rts.BindEnv, op string) (rts.OpSpec, error) {
	v, err := env.Memo("native.lognormal", func() (any, error) {
		cv := env.Params.Float("cv", 1.0)
		seed := env.Params.Uint64("seed", 1)
		count, err := TaskCount(env.Params, env.Graph)
		if err != nil {
			return nil, err
		}
		specs := map[string]rts.OpSpec{}
		for _, nd := range env.Graph.Nodes {
			specs[nd.Name] = CostSpec(nd.Name, LogNormalTimes(seed, nd.Name, count(nd), cv))
		}
		var bind rts.Binder = func(name string) rts.OpSpec { return specs[name] }
		return bind, nil
	})
	if err != nil {
		return rts.OpSpec{}, err
	}
	return v.(rts.Binder)(op), nil
}

// TaskCount builds the per-node task-count function the synthetic
// kernels share for g's nodes: a node's tasks= annotation (a symbolic
// trip count, resolved with params "n") when present, else params
// "tasks". A count of zero makes a zero-task operator; a negative one
// is refused, naming the node.
func TaskCount(params rts.KernelParams, g *delirium.Graph) (func(*delirium.Node) int, error) {
	tasks := params.Int("tasks", 2048)
	nParam := params.Int("n", 2048)
	count := func(nd *delirium.Node) int {
		if nd.Tasks != "" {
			if v, ok := ResolveTasks(nd.Tasks, nParam); ok {
				return v
			}
		}
		return tasks
	}
	for _, nd := range g.Nodes {
		if c := count(nd); c < 0 {
			return nil, fmt.Errorf("native: node %s has %d tasks", nd.Name, c)
		}
	}
	return count, nil
}

// ResolveTasks evaluates a symbolic trip-count annotation (such as
// "n-1" or "n/2") with every identifier bound to n, by parsing it as
// a one-assignment program and evaluating the right-hand side. The
// program declares no array, so the evaluator needs no memory. A value
// that is not finite or does not fit an int resolves to !ok: graph
// text arrives from outside, and converting such a float is
// implementation-defined.
func ResolveTasks(expr string, n int) (int, bool) {
	scratch, err := source.Parse("program s\n integer v\n v = " + expr + "\nend\n")
	if err != nil {
		return 0, false
	}
	assign, ok := scratch.Body[0].(*source.Assign)
	if !ok {
		return 0, false
	}
	var ev interp.Eval
	source.WalkExpr(assign.RHS, func(e source.Expr) {
		if id, ok := e.(*source.Ident); ok {
			ev.Bind(id.Name, float64(n))
		}
	})
	v, err := ev.Value(assign.RHS)
	if err != nil || !(v >= math.MinInt && v < -math.MinInt) {
		return 0, false
	}
	return int(v), true
}
