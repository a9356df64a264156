package main

import (
	"fmt"
	"sync/atomic"

	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/workload"
)

// The registry's "spin" kernel gives every graph node n tasks, so the
// five-node split graph does 5/3 the work of the three-node sequential
// graph it is compared against. The binder here conserves work: a part
// operator spins exactly the task times of the original-phase tasks it
// covers, so sequential and split graphs execute the same multiset of
// original tasks and differ only in orchestration. (internal/experiment
// has an unexported binder of the same shape; this one is built from
// exported API only, because the benchmark may touch no other package.)

// coverage counts executions of every original task of an application,
// whichever graph runs it.
type coverage struct {
	phases []string
	counts map[string][]int32
}

func newCoverage(app *workload.App) *coverage {
	c := &coverage{counts: map[string][]int32{}}
	for _, ph := range app.Phases() {
		c.phases = append(c.phases, ph)
		c.counts[ph] = make([]int32, app.Bind(ph).Op.N)
	}
	return c
}

// reset zeroes the counters between ops. Not safe during a run.
func (c *coverage) reset() {
	for _, cnt := range c.counts {
		clear(cnt)
	}
}

// err reports the first original task not executed exactly want times;
// want is 1 outside tests.
func (c *coverage) err(want int32) error {
	for _, ph := range c.phases {
		for i := range c.counts[ph] {
			if n := atomic.LoadInt32(&c.counts[ph][i]); n != want {
				return fmt.Errorf("task %s[%d] executed %d times, want %d", ph, i, n, want)
			}
		}
	}
	return nil
}

// conserving wraps app's operations so task i spins its drawn time ×
// unitWork iterations of native.Spin and records the original task it
// stands for in cov. The workload's statistics and hints are kept; only
// the executed body changes.
func conserving(app *workload.App, cov *coverage, unitWork float64) rts.Binder {
	return func(name string) rts.OpSpec {
		spec := app.Bind(name)
		part, ok := app.PartOrigin(name)
		if !ok {
			part = workload.Part{Phase: name}
		}
		counts := cov.counts[part.Phase]
		cost := spec.Op.Time
		body := func(i int) float64 {
			t := cost(i)
			native.Spin(int(t * unitWork))
			orig := i
			if part.Index != nil {
				orig = part.Index[i]
			}
			atomic.AddInt32(&counts[orig], 1)
			return t
		}
		spec.Op.Time = body
		spec.Op.TimeRange = func(lo, hi int) float64 {
			sum := 0.0
			for i := lo; i < hi; i++ {
				sum += body(i)
			}
			return sum
		}
		return spec
	}
}
