package native_test

import (
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/native"
	"orchestra/internal/rts"
)

// TestEmptyGraphWithFaultPlanRepro pins the zero-work edge case: a run
// whose operators contribute no tasks finishes during set-up, under a
// fault plan, and every path that observes the finish must agree on
// closing the finished channel exactly once (regression: double close
// panic).
func TestEmptyGraphWithFaultPlanRepro(t *testing.T) {
	out, err := core.CompileSource(quickstartProgram, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A binder with no task bodies: every operator has zero executable
	// tasks, so total work is 0.
	bind := func(string) rts.OpSpec { return rts.OpSpec{} }
	plan := mustPlan(t, "crash:1@0")
	opts := rts.RunOpts{Processors: 4, Fault: plan}
	if _, err := (native.Backend{}.Run(out.Graph, rts.BindClosure(bind), opts)); err != nil {
		t.Fatal(err)
	}
}
