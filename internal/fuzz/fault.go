package fuzz

// The faults rung. Failure tolerance claims an exact property: a run
// that loses workers mid-flight (or suffers stalls, slowdowns and
// message perturbations) still produces bitwise the final state of an
// undisturbed sequential run. The rung's rows carry the case's plan in
// RunOpts.Fault, so a recovery bug (lost chunk, double-released range,
// mis-gated retry) shows up as a value divergence whose row name spells
// the plan that provoked it.

// faultWorkers is the worker count of the rung's rows, and so of the
// random plans generated for it.
const faultWorkers = 4
