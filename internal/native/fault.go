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
// dead, leaves what it holds on its own deque and exits; the deque's
// lock makes each segment leave it exactly once, by one pop or one
// steal, so every task still runs exactly once and faulted results are
// bitwise identical to fault-free ones by construction. A thief that
// takes work from a worker marked dead records the retry (took).
//
// The detector only detects. It runs for plans with stalls: a worker
// whose heartbeat stops while it holds work is declared dead, so the
// live set shrinks and its queues become reachable in ModeStatic too. A
// declared worker that reaches its loop-top again resurrects. False
// positives are safe: a worker declared dead while merely slow keeps
// running, and the survivors' steals race its pops under the same
// deque lock.

// deadTicks is how many consecutive stale detector ticks escalate a
// suspect worker to declared-dead.
const deadTicks = 3

// liveP is the worker count scheduling decisions are computed against:
// the surviving set under fault injection, the whole pool otherwise.
func (e *engine) liveP() int {
	if e.fx == nil {
		return e.p
	}
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
			w.hb.Store(time.Now().UnixNano())
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
// marks itself dead before it pushes anything, so every thief that takes
// its work sees a dead victim and records the retry. Then seg, and any
// chain blocks still queued behind it, go onto its own deque; the
// survivors are woken, and the caller exits.
func (e *engine) crash(w *worker, seg segment) {
	e.markDead(w, w.id)
	e.place(w, seg)
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

// markDead marks w dead and shrinks the live set, recording the loss
// and the reallocation over the survivors on ring r: w's own when it
// crashes, the detector's when it is declared. The CAS pairs every live
// decrement with one false→true transition; the owner's resurrection
// CAS pairs increments with true→false, so the two sides can race
// without skewing the live count, and a loss is recorded once.
func (e *engine) markDead(w *worker, r int) {
	if !w.deadA.CompareAndSwap(false, true) {
		return
	}
	live := int(e.live.Add(-1))
	if e.rec != nil {
		t := time.Since(e.start).Seconds()
		e.rec.Fault(r, w.id, int(fault.Crash), t)
		e.rec.Realloc(r, live, t)
		e.emitRealloc(live)
	}
}

// emitRealloc re-runs the paper's allocation estimator over the
// surviving worker count at the run's ω, using the statistics measured
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
		rts.ReallocateOnLossOmega(machine.Config{}, specs, live, e.omega, e.rec, names...)
	}
}

// detector is the heartbeat watcher, launched only for plans with
// stalls. A worker is suspected when its heartbeat is at least one
// deadline stale while it holds work — parked idle workers hold nothing
// and are never suspected. deadTicks consecutive stale observations
// declare it dead, provided at least one other worker stays live, and
// wake the survivors: its queues are now theirs to take in every mode.
func (e *engine) detector() {
	defer e.detWG.Done()
	deadline := e.fx.Deadline()
	tick := time.Duration(deadline / 2 * float64(time.Second))
	if tick < 100*time.Microsecond {
		tick = 100 * time.Microsecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	lastHB := make([]int64, e.p)
	stale := make([]int, e.p)
	for {
		select {
		case <-e.finished:
			return
		case <-ticker.C:
		}
		now := time.Now().UnixNano()
		for j, w := range e.workers {
			if w.deadA.Load() {
				continue
			}
			// Progress-based staleness: an active worker stores a fresh
			// heartbeat every loop iteration, so an unchanged value across
			// ticks — not mere wall-clock age, which any scheduling delay
			// on an oversubscribed machine exceeds — marks it stuck.
			hb := w.hb.Load()
			if hb != lastHB[j] {
				lastHB[j] = hb
				stale[j] = 0
				continue
			}
			if !w.holding() || float64(now-hb)/1e9 < deadline {
				stale[j] = 0
				continue
			}
			stale[j]++
			if stale[j] >= deadTicks && e.live.Load() > 1 {
				e.markDead(w, e.p)
				e.signal(e.p)
				stale[j] = 0
			}
		}
	}
}
