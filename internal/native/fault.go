package native

import (
	"time"

	"orchestra/internal/fault"
	"orchestra/internal/machine"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
)

// Fault-tolerant execution follows the simulator's loss rule, the
// paper's §4.1.1 chunk re-assignment: a lost worker's work stays where
// it is, and the survivors take it through findWork's ordinary steal.
// Injected faults are cooperative: the fault plan is consulted at chunk
// boundaries only (faultPoint), before the popped segment executes, so
// no chunk is ever lost mid-flight. A crashing worker marks itself
// crashed, leaves what it holds on its own deque and exits; the deque's
// lock makes each segment leave it exactly once, by one pop or one
// steal, so every task still runs exactly once and faulted results are
// bitwise identical to fault-free ones by construction. A thief that
// takes work from a crashed worker records the retry (took).
//
// Only a crash loses a worker, as on the simulator and on dist. A stall
// is a delay: the stalled worker sleeps holding its popped segment,
// stays live, and keeps its deque, which peers that may steal take from
// as from any busy worker. Nothing watches for unresponsive workers, so
// a crashed worker is one that marked itself so and recorded the loss
// on its own ring.
//
// A pooled job's worker can also leave it for a job waiting on the pool
// (depart): the same path without the loss. It goes at a scheduling
// point, holding no chunk; what it held stays on its deque for the
// job's remaining workers, in every mode, and liveP counts it out. It
// records no fault and no retry. A job under a fault plan is never
// asked (lease.spare): the plan's one crash-free worker could be the one
// that leaves, so no plan names a worker that has left.

// liveP is the worker count scheduling decisions are computed against:
// the workers that have neither crashed nor left.
func (e *engine) liveP() int {
	if l := int(e.live.Load()); l > 0 {
		return l
	}
	return 1
}

// faultPoint consults the fault plan at a chunk boundary, holding the
// popped segment. It reports false when the worker crashes — the
// segment is then back on the worker's deque and the caller must exit.
// A stall sleeps in place and re-consults the plan; a slowdown records
// the factor for runSegment to pad wall time with.
func (e *engine) faultPoint(w *worker, seg segment) bool {
	for {
		d := e.fx.Begin(w.id)
		if d.Stall > 0 {
			if e.rec != nil {
				e.rec.Fault(w.id, w.id, int(fault.Stall), time.Since(e.start).Seconds())
			}
			time.Sleep(time.Duration(d.Stall * float64(time.Second)))
			continue
		}
		if d.Crash {
			e.crash(w, seg)
			return false
		}
		w.slowF = d.Slow
		if d.Fresh && e.rec != nil {
			e.rec.Fault(w.id, w.id, int(fault.Slow), time.Since(e.start).Seconds())
		}
		return true
	}
}

// crash retires w at a chunk boundary while it holds seg. The worker
// marks itself crashed before it pushes anything, so every thief that
// takes its work sees a crashed victim and records the retry. Then seg
// goes onto its own deque, and shed does the rest.
func (e *engine) crash(w *worker, seg segment) {
	e.markDead(w)
	e.place(w, seg)
	e.shed(w)
}

// depart takes w out of the run at a scheduling point, holding no
// chunk, when the pool has asked the job for a worker (yield) and w is
// not the job's last live one. It claims the live slot first, so two
// workers leaving at once never leave the job with none, then the ask;
// it reports false, leaving w running, when either is gone. A departed
// worker's lease goes back to the pool before the caller exits.
func (e *engine) depart(w *worker) bool {
	for {
		l := e.live.Load()
		if l <= 1 {
			return false
		}
		if e.live.CompareAndSwap(l, l-1) {
			break
		}
	}
	for {
		y := e.yield.Load()
		if y <= 0 {
			e.live.Add(1)
			return false
		}
		if e.yield.CompareAndSwap(y, y-1) {
			break
		}
	}
	w.state.Store(workerLeft)
	e.shed(w)
	e.handBack()
	return true
}

// shed leaves the chain blocks still queued behind a retiring worker
// on its own deque and wakes the others, who take everything it holds.
func (e *engine) shed(w *worker) {
	for _, it := range w.chainQ {
		e.chainFB.Add(1)
		if e.rec != nil {
			e.rec.Spill(w.id, it.seg.op, it.seg.lo, it.seg.len(), time.Since(e.start).Seconds())
		}
		e.place(w, it.seg)
	}
	w.chainQ = w.chainQ[:0]
	e.signal(e.p)
}

// markDead marks w crashed and shrinks the live set, recording the loss
// and the reallocation over the survivors on w's own ring. Only w's
// goroutine calls it, once, when it crashes.
func (e *engine) markDead(w *worker) {
	w.state.Store(workerCrashed)
	live := int(e.live.Add(-1))
	if e.rec != nil {
		t := time.Since(e.start).Seconds()
		e.rec.Fault(w.id, w.id, int(fault.Crash), t)
		e.rec.Realloc(w.id, live, t)
		e.emitRealloc(live)
	}
}

// emitRealloc re-runs the paper's allocation estimator over the
// surviving worker count at TAPER's ω for that count
// (sched.TaperWidth), using the statistics measured
// so far, emitting fresh AllocEstimate rows next to the KindRealloc
// event. Setup/comm/sched terms use a zero cost model (the native
// backend has no modelled machine); compute and lag come from real
// measurements.
func (e *engine) emitRealloc(live int) {
	var specs []rts.OpSpec
	var names []string
	for _, o := range e.opsSnap() {
		remaining := int(o.unsched.Load())
		if remaining <= 0 {
			continue
		}
		o.statsMu.Lock()
		mu := o.stats.Global.Mean()
		sigma := o.stats.Global.StdDev()
		o.statsMu.Unlock()
		specs = append(specs, rts.OpSpec{Op: sched.Op{Name: o.name, N: remaining}, Mu: mu, Sigma: sigma})
		names = append(names, o.name)
	}
	if len(specs) > 0 {
		rts.AllocateMany(machine.Config{}, specs, max(live, 1), e.rec, names...)
	}
}
