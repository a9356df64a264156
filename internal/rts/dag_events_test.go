package rts_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"orchestra/internal/fault"
	"orchestra/internal/machine"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
)

// TestDAGEventBound pins the simulator driver's scheduling cost: a
// chunk costs its completion event and at most one drain of the idle
// list, so events stay within 2·chunks plus a start-up allowance —
// whatever the processor count. With one wake event per idle processor
// per completion the two 512-processor cells took 371 983 and 391 410
// events for 10 158 and 8 480 chunks. The counts are deterministic, so
// this is an exact bound and not a timing.
func TestDAGEventBound(t *testing.T) {
	for name, build := range fig6Apps {
		for _, p := range []int{1, 8, 64, 512} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				app := build()
				probe, err := rts.NewDAGProbe(nil, app.GraphFor(rts.ModeSplit, p), app.Bind, p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := probe.Result()
				if err != nil {
					t.Fatal(err)
				}
				events, bound := probe.Events(), int64(2*res.Chunks+p+64)
				t.Logf("%d events for %d chunks", events, res.Chunks)
				if events > bound {
					t.Errorf("%d events for %d chunks, want at most 2·chunks+p+64 = %d", events, res.Chunks, bound)
				}
				// The probe is the same run RunGraph makes.
				app = build()
				want, err := rts.RunGraph(machine.DefaultConfig(p), app.GraphFor(rts.ModeSplit, p), app.Bind,
					rts.RunOpts{Processors: p, Mode: rts.ModeSplit})
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(res.Makespan) != math.Float64bits(want.Makespan) || res.Chunks != want.Chunks {
					t.Errorf("probe ran makespan %v in %d chunks, RunGraph %v in %d", res.Makespan, res.Chunks, want.Makespan, want.Chunks)
				}
			})
		}
	}
}

// TestSimRunCancelMidRunAtScale is TestSimRunCancelMidRun on the
// 512-processor Psirrfan cell: after the cancel, each chunk in flight
// costs its completion and at most one drain, then the event loop is
// empty. With one wake per idle processor every later completion
// re-queued all of the up to 511 idle processors.
func TestSimRunCancelMidRunAtScale(t *testing.T) {
	const p = 512
	app := fig6Apps["psirrfan"]()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	probe, err := rts.NewDAGProbe(ctx, app.GraphFor(rts.ModeSplit, p), app.Bind, p)
	if err != nil {
		t.Fatal(err)
	}
	for probe.Chunks() < 3000 {
		if !probe.Step() {
			t.Fatalf("run ended after %d chunks, before the cancel", probe.Chunks())
		}
	}
	cancel()
	inFlight, before := probe.InFlight(), probe.Events()
	if inFlight < 1 || inFlight > p {
		t.Fatalf("%d chunks in flight at the cancel", inFlight)
	}
	_, err = probe.Result()
	if !rts.IsCanceled(err) {
		t.Fatalf("error = %v, want one wrapping ErrCanceled", err)
	}
	if after := probe.Events() - before; after > int64(2*inFlight) {
		t.Errorf("%d events after the cancel with %d chunks in flight, want at most %d", after, inFlight, 2*inFlight)
	}
}

// TestSimFaultCrashOnIdleRescan pins what a fault plan's "@K" counts on
// the simulator: scheduling decisions, idle re-scans included. In the
// golden fault case worker 5 crashes at its 20th decision having run
// only 18 chunks — the trigger is reached while it is parked waiting
// for operator a to finish, on a re-scan that finds nothing. An
// executor that skipped futile re-scans under a fault plan would move
// the crash to a later chunk boundary and change the event stream.
func TestSimFaultCrashOnIdleRescan(t *testing.T) {
	c := faultCase
	_, tr := c.run(t)
	const worker = 5
	chunks, lastEnd, crashAt := 0, 0.0, math.NaN()
	for _, e := range tr.Events {
		if e.Worker != worker {
			continue
		}
		switch {
		case e.Kind == obs.KindChunk:
			chunks++
			lastEnd = e.T1
		case e.Kind == obs.KindFault && e.Arg == int32(fault.Crash):
			crashAt = e.T0
		}
	}
	if chunks != 18 || !(crashAt > lastEnd) {
		t.Errorf("worker %d crashed at %v after %d chunks, the last ending at %v; want the crash after 18 chunks, while idle", worker, crashAt, chunks, lastEnd)
	}
	if got, want := hashEvents(tr), readDAGGolden(t)[c.name].Events; got != want {
		t.Errorf("event stream %s, golden %s", got, want)
	}
}
