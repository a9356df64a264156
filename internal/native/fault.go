package native

import (
	"time"

	"orchestra/internal/fault"
	"orchestra/internal/machine"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
)

// Fault-tolerant execution. Injected faults are cooperative: the fault
// plan is consulted at chunk boundaries only (faultPoint), before the
// popped segment executes, so no chunk is ever lost mid-flight and
// every task still runs exactly once — faulted results are bitwise
// identical to fault-free ones by construction. Recovery of the work a
// dead worker holds (deque segments, inbox posts) is the detector's
// job: a single goroutine that watches per-worker heartbeats and
// steal-drains unresponsive workers.
//
// False positives are safe everywhere. A worker declared dead that is
// merely slow keeps running: it executes whatever it holds in its
// hands, its deque steals race it through the lock-free Chase–Lev
// protocol (each segment moves exactly once), and its inbox drains
// under the mutex — the worker only loses cross-posted work and
// locality, never correctness. The detector keeps draining declared-
// dead workers on every tick, so a segment posted to a dead inbox
// after its last drain is always recovered on the next one.

// deadTicks is how many consecutive stale detector ticks escalate a
// suspect worker to declared-dead (suspicion alone already recovers
// its queued work; declaration shrinks the live set).
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
// segment has then been handed to a survivor and the caller must exit.
// A stall sleeps in place (the detector recovers the worker's queued
// segments meanwhile) and re-consults the plan; a slowdown records the
// factor for runSegment to pad wall time with.
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
			if e.rec != nil {
				e.rec.Fault(w.id, w.id, int(fault.Crash), time.Since(e.start).Seconds())
			}
			// Self-declare: the worker knows it is dying, so the live set
			// must not count it (deliver would otherwise route recovered
			// work to an exited goroutine while falsely-suspected live
			// workers are excluded — a shuffle livelock on slow machines).
			if w.deadA.CompareAndSwap(false, true) {
				live := int(e.live.Add(-1))
				if e.rec != nil {
					e.rec.Realloc(w.id, live, time.Since(e.start).Seconds())
					e.emitRealloc(live)
				}
			}
			e.anyDead.Store(true)
			// Hand the popped segment to a survivor — never back to our
			// own deque, whose recovery depends on detector timing.
			e.queued.Add(1)
			e.deliver(seg, w.id)
			return false
		}
		w.slowF = d.Slow
		if d.Slow > 0 && !w.slowSeen {
			w.slowSeen = true
			if e.rec != nil {
				e.rec.Fault(w.id, w.id, int(fault.Slow), time.Since(e.start).Seconds())
			}
		}
		return true
	}
}

// deliver posts a segment to a worker that has not been declared dead,
// scanning from exclude+1 so consecutive deliveries spread. The caller
// owns the queued accounting. The fallback (everyone else declared
// dead — transiently possible under false positives) posts to any
// other inbox: the detector drains dead inboxes on every tick, so the
// segment is recovered rather than lost.
func (e *engine) deliver(s segment, exclude int) {
	for off := 1; off < e.p; off++ {
		t := e.workers[(exclude+off)%e.p]
		if t.id == exclude || t.deadA.Load() {
			continue
		}
		t.postInbox(s)
		t.pk.unpark()
		return
	}
	t := e.workers[(exclude+1)%e.p]
	t.postInbox(s)
	t.pk.unpark()
}

// redistribute moves a recovered segment to a survivor. It never
// touches queued: the segment was already counted when released, and
// recovery only relocates it.
func (e *engine) redistribute(s segment, from *worker) {
	if e.rec != nil {
		e.rec.Retry(e.p, from.id, s.op, s.lo, s.len(), time.Since(e.start).Seconds())
	}
	e.deliver(s, from.id)
}

// recoverHoldings steal-drains a worker's deque and empties its inbox,
// re-issuing everything to survivors. Deque steals are safe against a
// concurrently running owner (false positive); the inbox drain holds
// the same mutex posters and the owner use.
func (e *engine) recoverHoldings(w *worker) {
	for {
		s, ok := w.dq.steal()
		if !ok {
			break
		}
		e.redistribute(s, w)
	}
	if w.inboxN.Load() > 0 {
		w.inboxMu.Lock()
		segs := append([]segment(nil), w.inbox...)
		w.inbox = w.inbox[:0]
		w.inboxN.Add(int32(-len(segs)))
		w.inboxMu.Unlock()
		for _, s := range segs {
			e.redistribute(s, w)
		}
	}
}

// declareDead marks a worker dead after persistent unresponsiveness:
// the live set shrinks (chunk sizing and releases adapt), its holdings
// are recovered, and the allocation estimates are re-derived over the
// survivors so the trace's finishing-time story tracks the machine
// that is actually left.
func (e *engine) declareDead(w *worker) {
	// CAS pairs every live decrement with one false→true transition;
	// the owner's resurrection CAS pairs increments with true→false,
	// so the two sides can race without skewing the live count.
	if !w.deadA.CompareAndSwap(false, true) {
		return
	}
	e.anyDead.Store(true)
	live := int(e.live.Add(-1))
	if e.rec != nil {
		t := time.Since(e.start).Seconds()
		e.rec.Fault(e.p, w.id, int(fault.Crash), t)
		e.rec.Realloc(e.p, live, t)
		e.emitRealloc(live)
	}
	e.recoverHoldings(w)
	e.signal(e.p)
}

// emitRealloc re-runs the paper's allocation estimator over the
// surviving worker count using the statistics measured so far,
// emitting fresh AllocEstimate rows next to the KindRealloc event.
// Setup/comm/sched terms use a zero cost model (the native backend has
// no modelled machine); compute and lag come from real measurements.
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
		rts.ReallocateOnLoss(machine.Config{}, specs, live, e.rec, names...)
	}
}

// detector is the heartbeat watcher, launched only for plans that need
// one (crash or stall actions). A worker is suspected when its
// heartbeat is at least one deadline stale while it holds work —
// parked idle workers hold nothing and are never suspected. deadTicks
// consecutive stale observations escalate to declared-dead (provided
// at least one other worker stays live), and only declaration recovers
// the worker's holdings: draining a merely-suspect worker would steal
// inbox posts from live workers that are just waiting for CPU, and on
// an oversubscribed machine that relocation outruns every owner's own
// drain — a livelock. Dead workers keep being drained every tick, so
// late posts to their inboxes (and TAPER remainders a zombie pushes
// before exiting) are always recovered.
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
				e.recoverHoldings(w)
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
			holding := w.dq.size() > 0 || w.inboxN.Load() > 0
			if !holding || float64(now-hb)/1e9 < deadline {
				stale[j] = 0
				continue
			}
			stale[j]++
			if stale[j] >= deadTicks && e.live.Load() > 1 {
				e.declareDead(w)
				stale[j] = 0
			}
		}
	}
}
