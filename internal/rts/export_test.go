package rts

import (
	"context"

	"orchestra/internal/delirium"
	"orchestra/internal/machine"
	"orchestra/internal/trace"
)

// DAGProbe lets the external test package (the one that can import
// internal/workload) step the barrier-free executor's event loop and
// read its event count. Test-only: nothing here is part of the package.
type DAGProbe struct{ r *dagRun }

// NewDAGProbe builds a fault-free, untraced split run of g on p
// processors, stopped before its first event.
func NewDAGProbe(ctx context.Context, g *delirium.Graph, bind Binder, p int) (*DAGProbe, error) {
	r, err := newDagRun(ctx, machine.DefaultConfig(p), g, bind, p, ModeSplit, nil, nil)
	return &DAGProbe{r}, err
}

// Step executes one event; it reports false when none remain.
func (d *DAGProbe) Step() bool { return d.r.sim.Step() }

// Events is how many events have executed.
func (d *DAGProbe) Events() int64 { return d.r.sim.Events() }

// Chunks is how many chunks have been dispatched.
func (d *DAGProbe) Chunks() int { return d.r.res.Chunks }

// InFlight is how many processors are executing a chunk. Between
// events of a run that has not stopped, every processor is parked,
// woken and awaiting its drain, or executing.
func (d *DAGProbe) InFlight() int {
	return d.r.p - len(d.r.idle) - (len(d.r.woken) - d.r.wokenHead)
}

// Result runs whatever events remain and returns the run's outcome.
func (d *DAGProbe) Result() (trace.Result, error) {
	d.r.sim.Run()
	return d.r.result()
}
