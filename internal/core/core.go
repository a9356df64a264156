// Package core is the top-level API of the reproduction: the paper's
// primary contribution is the *combination* of compile-time split and
// adaptive runtime orchestration, and this package exposes that
// combination as a small facade over the internal packages.
//
// The typical flow mirrors the paper's toolchain:
//
//	out, err := core.CompileSource(text, core.DefaultOptions())          // §3: analysis + split
//	res, err := core.Execute(out, core.BindUniform(1024, 1),             // §4: adaptive runtime
//	        rts.RunOpts{Processors: 512, Mode: core.ModeSplit})
//
// CompileSource runs the symbolic analysis pipeline, applies split and
// pipelining, and returns the transformed program plus the Delirium
// dataflow graph. Execute runs that graph on the simulated
// distributed-memory machine under one of the three evaluation
// configurations. BindUniform and BindIrregular return serializable
// rts.Binding values naming synthetic kernels from the process-wide
// registry; real workloads register their own kernels (see
// internal/workload) or construct rts.OpSpec values directly.
// BindIrregular's task times are native.LogNormalTimes, the one
// log-normal draw the "spin" and "lognormal" families use too, so the
// same seed, cv and node name give the same times in every family.
//
// Importing core registers every backend ("sim", "native", "dist") and
// the built-in kernel families, so rts.OpenBackend and rts.Bind work
// by name.
package core

import (
	"orchestra/internal/compile"
	_ "orchestra/internal/dist" // register the "dist" backend
	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/source"
	"orchestra/internal/trace"
)

// Options re-exports the compiler options.
type Options = compile.Options

// Output re-exports the compilation result.
type Output = compile.Output

// Mode re-exports the runtime execution mode.
type Mode = rts.Mode

// RunOpts re-exports the per-run options accepted by every backend.
type RunOpts = rts.RunOpts

// The three runtime configurations of the paper's evaluation.
const (
	ModeStatic = rts.ModeStatic
	ModeTaper  = rts.ModeTaper
	ModeSplit  = rts.ModeSplit
)

// DefaultOptions enables split and pipelining.
func DefaultOptions() Options { return compile.DefaultOptions() }

// CompileSource parses and compiles a mini-Fortran program.
func CompileSource(text string, opts Options) (*Output, error) {
	prog, err := source.Parse(text)
	if err != nil {
		return nil, err
	}
	return compile.Compile(prog, opts)
}

// Backend re-exports the execution-backend interface: the simulated
// Ncube-2 machine, the native goroutine runtime, or the distributed
// process runtime.
type Backend = rts.Backend

// BackendNames lists the registered backend names, sorted.
func BackendNames() []string { return rts.BackendNames() }

// NewBackend constructs a backend by name through the backend
// registry. For "sim", p sizes the simulated machine's cost model (and
// is the default processor count when RunOpts.Processors is zero); the
// measured backends treat p as their default worker count, overridden
// by RunOpts.Processors at Run time.
func NewBackend(name string, p int) (Backend, error) {
	return rts.OpenBackend(name, rts.BackendConfig{Processors: p})
}

// Execute runs a compilation's dataflow graph on a simulated machine
// under the given options. The machine is sized to opts.Processors.
func Execute(out *Output, binding rts.Binding, opts RunOpts) (trace.Result, error) {
	p := opts.Processors
	if p < 1 {
		p = 1
	}
	be, err := rts.OpenBackend("sim", rts.BackendConfig{Processors: p})
	if err != nil {
		return trace.Result{}, err
	}
	return ExecuteOn(be, out, binding, opts)
}

// ExecuteOn runs a compilation's dataflow graph on the given backend
// under the given options, binding kernels by name from the registry.
func ExecuteOn(be Backend, out *Output, binding rts.Binding, opts RunOpts) (trace.Result, error) {
	bound, err := rts.Bind(out.Graph, binding)
	if err != nil {
		return trace.Result{}, err
	}
	return be.Run(out.Graph, bound, opts)
}

// BindUniform binds every graph node to an operation of n tasks with
// constant task time (the "uniform" registry kernel).
func BindUniform(n int, taskTime float64) rts.Binding {
	params := rts.KernelParams{}
	params.SetInt("tasks", n)
	params.SetFloat("t", taskTime)
	return rts.NamedBinding("uniform", params)
}

// BindIrregular binds every graph node to an operation of n tasks with
// log-normally distributed task times of unit mean and the given
// coefficient of variation, seeded per node name so runs are
// deterministic (the "irregular" registry kernel).
func BindIrregular(n int, cv float64, seed uint64) rts.Binding {
	params := rts.KernelParams{}
	params.SetInt("tasks", n)
	params.SetFloat("cv", cv)
	params.SetUint64("seed", seed)
	return rts.NamedBinding("irregular", params)
}

func init() {
	rts.Kernels.MustRegister("uniform", uniformKernel)
	rts.Kernels.MustRegister("irregular", irregularKernel)
}

// uniformKernel is BindUniform's constructor: params "tasks" (task
// count, default 1024) and "t" (constant task time, default 1).
func uniformKernel(env *rts.BindEnv, op string) (rts.OpSpec, error) {
	n := env.Params.Int("tasks", 1024)
	taskTime := env.Params.Float("t", 1)
	spec := rts.OpSpec{Op: sched.Op{
		Name:  op,
		N:     n,
		Time:  func(int) float64 { return taskTime },
		Bytes: 64,
		Hint:  func(int) float64 { return taskTime },
	}}
	spec.SampleStats(64)
	return spec, nil
}

// irregularKernel is BindIrregular's constructor: params "tasks"
// (default 1024), "cv" (coefficient of variation, default 1), "seed".
func irregularKernel(env *rts.BindEnv, op string) (rts.OpSpec, error) {
	n := env.Params.Int("tasks", 1024)
	cv := env.Params.Float("cv", 1)
	seed := env.Params.Uint64("seed", 1)
	return native.CostSpec(op, native.LogNormalTimes(seed, op, n, cv)), nil
}
