package rts

import (
	"orchestra/internal/delirium"
	"orchestra/internal/machine"
	"orchestra/internal/trace"
)

// Backend executes compiled Delirium graphs. Three implementations
// exist: the discrete-event simulator of the paper's Ncube-2 testbed
// (SimBackend, in this package), the native goroutine runtime that
// runs graphs on real shared-memory hardware (internal/native), and
// the distributed shared-nothing backend that forks worker processes
// communicating over Unix sockets (internal/dist). All consume the
// same compiled graph and the same Bound kernels: a backend treats
// OpSpec.Op.Time as the executable body of task i — the simulator
// charges its return value to the simulated clock, while the measured
// backends run it for real and record wall-clock time instead.
//
// Run is the only execution entry point: every per-run knob
// (processor count, mode, trace sink, fault plan, context, chain
// policy) lives in RunOpts, so backends are stateless values and a run's
// configuration is visible at the call site. The kernels arrive as a
// *Bound — a Binding resolved through the kernel registry — rather
// than a raw Binder closure, because the dist backend must ship the
// binding's name-level form to its worker processes; shared-memory
// backends simply call b.Spec. Backends are constructed by name
// through OpenBackend (see backendreg.go); each implementation
// registers a factory from an init function.
type Backend interface {
	// Name identifies the backend ("sim", "native", "dist").
	Name() string
	// Run executes the graph with the bound kernels under the given
	// options. Implementations validate opts and apply backend
	// defaults for zero fields.
	Run(g *delirium.Graph, b *Bound, opts RunOpts) (trace.Result, error)
}

// SimBackend runs graphs on the simulated distributed-memory machine.
type SimBackend struct {
	Cfg machine.Config
}

// NewSimBackend wraps a machine configuration as a Backend.
func NewSimBackend(cfg machine.Config) *SimBackend { return &SimBackend{Cfg: cfg} }

// Name implements Backend.
func (*SimBackend) Name() string { return "sim" }

// Run implements Backend via RunGraph. A zero opts.Processors
// defaults to the machine configuration's processor count.
func (s *SimBackend) Run(g *delirium.Graph, b *Bound, opts RunOpts) (trace.Result, error) {
	return RunGraph(s.Cfg, g, b.Binder(), opts)
}
