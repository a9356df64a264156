// Package obs is the runtime's flight recorder: a low-overhead event
// tracing subsystem both execution backends emit into. The paper's
// evaluation hinges on seeing what the runtime decided — the grain
// sizes TAPER picked, how the allocation algorithm equalized
// finishing-time estimates, where pipelined pairs overlapped — and
// this package captures exactly those decisions as timestamped events:
//
//   - KindChunk: one executed chunk of tasks (operator, worker, task
//     range, start/end time, whether the chunk was stolen);
//   - KindSteal: a chunk re-assignment between workers (thief, victim);
//   - KindTaper: one TAPER chunk-size decision (remaining tasks,
//     chosen grain, sample count, sampled μ and σ);
//   - KindGate: a producer's contiguous completed prefix advanced,
//     enabling pipelined consumer tasks;
//   - KindEpoch: the token tree completed an epoch and broadcast.
//
// Processor-allocation iterations (the per-operator finishing-time
// estimates setup+compute+lag+comm+sched of §4.1.2) are recorded
// separately as AllocEstimate rows: allocation happens once per level
// before execution, so it takes the cold mutex path.
//
// Capture is per-worker ring buffers with single-writer discipline:
// worker w appends only to ring w, so the hot emit path is a bounds
// check and a slice store — no locks, no allocation, no contention.
// When tracing is disabled the Recorder is nil and every emit method
// returns immediately on the nil receiver, so a disabled run pays one
// predictable branch per would-be event (the "nil-sink fast path").
//
// A backend drains the rings into a Trace after its workers join and
// hands it to the run's Sink (rts.RunOpts.Sink). Exporters render a
// Trace as Chrome trace-event JSON (WriteChromeTrace, loadable in
// Perfetto), CSV (WriteCSV), or a terminal per-operator Gantt chart
// (Summary).
package obs

import (
	"sort"
	"sync"

	"orchestra/internal/trace"
)

// Kind classifies an Event.
type Kind uint8

// The event taxonomy. Field usage per kind is documented on Event.
const (
	// KindChunk is one executed chunk: tasks [Lo, Lo+N) of operator Op
	// ran on Worker over [T0, T1]. Arg is 1 when the chunk was taken
	// from another worker's queue.
	KindChunk Kind = 1 + iota
	// KindSteal is a chunk re-assignment: Worker (the thief) took
	// tasks [Lo, Lo+N) of Op from worker Arg (the victim) at T0.
	KindSteal
	// KindTaper is a chunk-size decision at T0: with Lo tasks still
	// unscheduled in Op, the policy chose a grain of N tasks from Arg
	// samples whose mean is V0 and standard deviation V1.
	KindTaper
	// KindGate is a pipeline-gate advance at T0: operator Op's
	// contiguous completed prefix grew from Lo to Lo+N, enabling
	// pipelined consumers up to the mapped index.
	KindGate
	// KindEpoch is a token-tree epoch advance at T0: the root received
	// a token from every processor of Op's pool and broadcast epoch
	// Arg (§4.1.1's epoch/token protocol).
	KindEpoch
	// KindFault is a fault at T0: worker Lo crashed, stalled or slowed,
	// observed by Worker — the faulted worker itself on the simulator
	// and on native, the coordinator's ring when dist loses a process.
	// Arg carries the fault action kind (fault.Kind numbering).
	KindFault
	// KindRetry is a chunk re-issue at T0: survivor Worker took tasks
	// [Lo, Lo+N) of Op from worker Arg, which a fault had taken out.
	KindRetry
	// KindRealloc marks a reallocation-on-loss at T0: the allocation
	// estimates were recomputed over the Arg surviving workers (the
	// fresh AllocEstimate rows carry the numbers).
	KindRealloc
	// KindChain is a cache-chain hit at T0: tasks [Lo, Lo+N) of
	// consumer operator Op ran on Worker immediately after the
	// producer chunk that enabled them, while the producer's output
	// was still cache-resident. Arg is the chain depth. The chunk's
	// span is the accompanying KindChunk event.
	KindChain
	// KindSpill is a chain fallback at T0: an enabled consumer block
	// of tasks [Lo, Lo+N) of Op could not be run in place (depth
	// limit, crash, cancellation) and was released to the ordinary
	// work-stealing path instead.
	KindSpill
	// KindMsg is one measured inter-process message round on the dist
	// backend: a segment grant for tasks [Lo, Lo+N) of Op was the
	// business of worker process Worker from T0 — when it was sent or,
	// for a grant queued behind the worker's previous segment, when
	// that segment's completion arrived — until its own completion
	// arrived back at T1. Arg carries the data-block payload bytes the
	// round moved; V0 is the worker-reported execution time, so
	// T1-T0-V0 is the round's pure communication cost.
	KindMsg
)

func (k Kind) String() string {
	switch k {
	case KindChunk:
		return "chunk"
	case KindSteal:
		return "steal"
	case KindTaper:
		return "taper"
	case KindGate:
		return "gate"
	case KindEpoch:
		return "epoch"
	case KindFault:
		return "fault"
	case KindRetry:
		return "retry"
	case KindRealloc:
		return "realloc"
	case KindChain:
		return "chain"
	case KindSpill:
		return "spill"
	case KindMsg:
		return "msg"
	}
	return "?"
}

// Event is one fixed-size trace record. Kind determines which fields
// are meaningful (see the Kind constants); times are in the Trace's
// Unit — wall-clock seconds for the native backend, simulator units
// for the simulated machine.
type Event struct {
	Kind   Kind
	Worker int32 // emitting worker/processor
	Op     int32 // operator index into Trace.Ops, -1 if none
	Lo     int32 // first task index (chunk/steal), old prefix (gate), remaining (taper)
	N      int32 // task count (chunk/steal/gate), chosen grain (taper)
	Arg    int32 // kind-specific (steal victim, taper samples, epoch number)
	T0     float64
	T1     float64 // chunk end time; unused otherwise
	V0     float64 // taper: sampled mean task time
	V1     float64 // taper: sampled standard deviation
}

// ringCap is the per-worker ring capacity. A ring overwrites its
// oldest events when full, so a long run keeps the most recent window
// (Trace.Dropped counts what was lost). At 32768 events × ~72 bytes a
// fully loaded ring holds ~2.4 MB.
const ringCap = 1 << 15

// ring is one worker's event buffer. Single writer (the owning
// worker); read only after the run's workers have joined.
type ring struct {
	buf []Event
	n   int // total events emitted, including overwritten ones
	// pad keeps adjacent rings off the same cache line, so two
	// workers' emit paths never false-share.
	_ [24]byte
}

func (r *ring) emit(ev Event) {
	if r.buf == nil {
		r.buf = make([]Event, ringCap)
	}
	r.buf[r.n&(ringCap-1)] = ev
	r.n++
}

// AllocEstimate is one evaluation of the processor-allocation
// algorithm's finishing-time estimate (§4.1.2): operator Op on Procs
// processors is predicted to finish in Setup+Compute+Lag+Comm+Sched.
// Round numbers the refinement iteration; Chosen marks the rows of the
// allocation finally used.
type AllocEstimate struct {
	Op      string
	Round   int
	Procs   int
	Setup   float64
	Compute float64
	Lag     float64
	Comm    float64
	Sched   float64
	Chosen  bool
}

// Total is the finishing-time estimate, the paper's equation (1).
func (a AllocEstimate) Total() float64 {
	return a.Setup + a.Compute + a.Lag + a.Comm + a.Sched
}

// Recorder captures events during one run. A nil *Recorder is valid
// and discards everything at the cost of one branch per emit call —
// backends create a Recorder only when the run has a Sink.
type Recorder struct {
	backend string
	unit    string
	ops     []string
	rings   []ring

	// mu guards the cold-path records (allocation estimates).
	mu     sync.Mutex
	allocs []AllocEstimate
}

// NewRecorder prepares per-worker rings for a run of the named backend
// over the given operators. unit is trace.Result's time unit ("" for
// simulator units, "s" for wall-clock seconds).
func NewRecorder(backend, unit string, ops []string, workers int) *Recorder {
	if workers < 1 {
		workers = 1
	}
	return &Recorder{backend: backend, unit: unit, ops: ops, rings: make([]ring, workers)}
}

// OpNames returns the recorder's operator-name table (index = Event.Op).
func (r *Recorder) OpNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ops
}

// AddOp appends an operator name mid-run and returns its index,
// for operators that only come into existence at execution time
// (runtime-expanded sub-graphs). Safe to call concurrently with
// event emission: events carry indices, and the name table is only
// consulted at Finish/export time. The caller must keep its own op
// indexing aligned with the returned index.
func (r *Recorder) AddOp(name string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, name)
	return len(r.ops) - 1
}

func (r *Recorder) ring(w int) *ring {
	if w < 0 || w >= len(r.rings) {
		w = 0
	}
	return &r.rings[w]
}

// Chunk records that worker w executed tasks [lo, lo+n) of operator op
// over [t0, t1]. stolen marks chunks taken from another worker's queue.
func (r *Recorder) Chunk(w, op, lo, n int, t0, t1 float64, stolen bool) {
	if r == nil {
		return
	}
	var s int32
	if stolen {
		s = 1
	}
	r.ring(w).emit(Event{Kind: KindChunk, Worker: int32(w), Op: int32(op),
		Lo: int32(lo), N: int32(n), Arg: s, T0: t0, T1: t1})
}

// Steal records that worker w took tasks [lo, lo+n) of operator op
// from victim at time t.
func (r *Recorder) Steal(w, victim, op, lo, n int, t float64) {
	if r == nil {
		return
	}
	r.ring(w).emit(Event{Kind: KindSteal, Worker: int32(w), Op: int32(op),
		Lo: int32(lo), N: int32(n), Arg: int32(victim), T0: t})
}

// Taper records a chunk-size decision on worker w: with remaining
// unscheduled tasks in op, the policy chose grain from samples
// observations of mean mu and standard deviation sigma.
func (r *Recorder) Taper(w, op, remaining, grain, samples int, mu, sigma, t float64) {
	if r == nil {
		return
	}
	r.ring(w).emit(Event{Kind: KindTaper, Worker: int32(w), Op: int32(op),
		Lo: int32(remaining), N: int32(grain), Arg: int32(samples), T0: t, V0: mu, V1: sigma})
}

// Gate records that operator op's contiguous completed prefix advanced
// from oldPfx to newPfx at time t, observed on worker w.
func (r *Recorder) Gate(w, op, oldPfx, newPfx int, t float64) {
	if r == nil {
		return
	}
	r.ring(w).emit(Event{Kind: KindGate, Worker: int32(w), Op: int32(op),
		Lo: int32(oldPfx), N: int32(newPfx - oldPfx), T0: t})
}

// Epoch records a token-tree epoch broadcast for operator op at time t.
func (r *Recorder) Epoch(w, op, epoch int, t float64) {
	if r == nil {
		return
	}
	r.ring(w).emit(Event{Kind: KindEpoch, Worker: int32(w), Op: int32(op),
		Arg: int32(epoch), T0: t})
}

// Fault records a fault observation at time t: worker target crashed,
// stalled or slowed (action is the fault.Kind number). w is the
// observing ring — the worker itself when the fault is self-injected,
// dist's coordinator ring when it observes a process's loss.
func (r *Recorder) Fault(w, target, action int, t float64) {
	if r == nil {
		return
	}
	r.ring(w).emit(Event{Kind: KindFault, Worker: int32(w), Op: -1,
		Lo: int32(target), Arg: int32(action), T0: t})
}

// Retry records that survivor w took tasks [lo, lo+n) of operator op
// from victim, a worker a fault had taken out, at time t.
func (r *Recorder) Retry(w, victim, op, lo, n int, t float64) {
	if r == nil {
		return
	}
	r.ring(w).emit(Event{Kind: KindRetry, Worker: int32(w), Op: int32(op),
		Lo: int32(lo), N: int32(n), Arg: int32(victim), T0: t})
}

// Chain records a cache-chain hit: worker w ran consumer tasks
// [lo, lo+n) of operator op at chain depth depth, immediately after
// completing the producer chunk that enabled them.
func (r *Recorder) Chain(w, op, lo, n, depth int, t float64) {
	if r == nil {
		return
	}
	r.ring(w).emit(Event{Kind: KindChain, Worker: int32(w), Op: int32(op),
		Lo: int32(lo), N: int32(n), Arg: int32(depth), T0: t})
}

// Spill records a chain fallback: an enabled consumer block of tasks
// [lo, lo+n) of op was released to the work-stealing path instead of
// running in place on worker w.
func (r *Recorder) Spill(w, op, lo, n int, t float64) {
	if r == nil {
		return
	}
	r.ring(w).emit(Event{Kind: KindSpill, Worker: int32(w), Op: int32(op),
		Lo: int32(lo), N: int32(n), T0: t})
}

// Msg records one measured message round on the dist backend: a grant
// for tasks [lo, lo+n) of operator op became worker process w's next
// segment at t0 (see KindMsg), its completion arrived at t1, the worker
// reported exec seconds of execution, and the round moved bytes of
// data-block payload.
func (r *Recorder) Msg(w, op, lo, n int, bytes int64, t0, t1, exec float64) {
	if r == nil {
		return
	}
	r.ring(w).emit(Event{Kind: KindMsg, Worker: int32(w), Op: int32(op),
		Lo: int32(lo), N: int32(n), Arg: int32(bytes), T0: t0, T1: t1, V0: exec})
}

// Realloc records that the allocation estimates were recomputed over
// live surviving workers at time t (reallocation-on-loss); the
// accompanying AllocEstimate rows carry the recomputed terms.
func (r *Recorder) Realloc(w, live int, t float64) {
	if r == nil {
		return
	}
	r.ring(w).emit(Event{Kind: KindRealloc, Worker: int32(w), Op: -1,
		Arg: int32(live), T0: t})
}

// Alloc records one allocation-iteration estimate. Allocation runs
// once per dataflow level before tasks execute, so this takes a mutex
// rather than a ring.
func (r *Recorder) Alloc(a AllocEstimate) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.allocs = append(r.allocs, a)
	r.mu.Unlock()
}

// Trace is a completed run's recorded timeline: the merged, time-
// sorted events of every worker plus the run's aggregate Result.
type Trace struct {
	Backend string
	// Unit is the time unit of every event and of Result: "" for
	// simulator units, "s" for wall-clock seconds.
	Unit    string
	Ops     []string
	Workers int
	Events  []Event
	// Dropped counts events lost to ring overwrites.
	Dropped int
	Allocs  []AllocEstimate
	Result  trace.Result
}

// Finish drains the rings into a Trace. Call only after every emitting
// worker has stopped (the backend joins its pool first).
func (r *Recorder) Finish(res trace.Result) *Trace {
	if r == nil {
		return nil
	}
	t := &Trace{Backend: r.backend, Unit: r.unit, Ops: r.ops,
		Workers: len(r.rings), Allocs: r.allocs, Result: res}
	for i := range r.rings {
		rg := &r.rings[i]
		n := rg.n
		if n > ringCap {
			t.Dropped += n - ringCap
			n = ringCap
		}
		for j := rg.n - n; j < rg.n; j++ {
			t.Events = append(t.Events, rg.buf[j&(ringCap-1)])
		}
	}
	sort.SliceStable(t.Events, func(i, j int) bool { return t.Events[i].T0 < t.Events[j].T0 })
	return t
}

// OpName resolves an event's operator index.
func (t *Trace) OpName(op int32) string {
	if op >= 0 && int(op) < len(t.Ops) {
		return t.Ops[op]
	}
	return "?"
}

// Sink receives a completed run's Trace. Implementations must not
// retain the trace's slices beyond Consume if they mutate them.
type Sink interface {
	Consume(t *Trace) error
}

// Collector is the trivial in-memory Sink: it keeps the last trace it
// received.
type Collector struct {
	Trace *Trace
}

// Consume implements Sink.
func (c *Collector) Consume(t *Trace) error {
	c.Trace = t
	return nil
}

// OpObs binds a Recorder to one operator index and a time base, for
// executors that run a single operator on their own clock (the
// barriered sched executors): events are emitted at Base + the
// executor's local time, so a graph run's operators land on one shared
// timeline. The zero value records nothing.
type OpObs struct {
	R    *Recorder
	Op   int
	Base float64
}

// On reports whether emission is enabled.
func (o OpObs) On() bool { return o.R != nil }
