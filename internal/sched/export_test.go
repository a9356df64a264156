package sched

// The operations the executor tests in run_test.go (package sched_test,
// which drives them through the simulator's rts.RunOp) share with this
// package's own tests.
var (
	UniformOp   = uniformOp
	IrregularOp = irregularOp
	HintedOp    = hintedOp
	ProcList    = procList
)
