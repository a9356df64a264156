// Package machine simulates a distributed-memory multiprocessor in the
// style of the Ncube-2 the paper evaluates on: a hypercube of
// processors with per-message software overhead, per-hop latency, and
// per-byte transfer cost, driven by a discrete-event core.
//
// The simulator substitutes for the paper's hardware testbed. The
// evaluation depends on relative scheduling behaviour — load imbalance,
// communication and scheduling overhead as the processor count grows —
// which the cost model reproduces; absolute times are arbitrary units
// (one unit ≈ the cost of a small task).
//
// The event core is allocation-free in steady state: events live in a
// pooled arena with free-list reuse, ordered by a 4-ary heap of
// (time, seq, slot) keys that sifts without reading the arena, and the
// AtFn/AfterFn scheduling path takes a reusable func(int) plus an
// integer argument so callers need not box a fresh closure per event.
// After the arena reaches the peak number of outstanding events,
// scheduling and running events performs no heap allocation at all.
package machine

import (
	"fmt"
	"math"
	"math/bits"
)

// SimUnitMicroseconds maps the simulator's clock onto the trace
// exporters' timeline: one simulated time unit renders as this many
// microseconds in a Chrome trace-event file. The simulator's units are
// arbitrary (one unit ≈ a small task), so the mapping only fixes a
// readable zoom level in Perfetto — spans keep their relative lengths
// under any choice.
const SimUnitMicroseconds = 1.0

// Config describes the simulated machine.
type Config struct {
	Processors int
	// MsgOverhead is the fixed software cost of one message
	// (send + receive processing).
	MsgOverhead float64
	// HopLatency is the network latency per hypercube hop.
	HopLatency float64
	// ByteCost is the transfer time per byte.
	ByteCost float64
	// SchedOverhead is the cost of one scheduling event (dispatching a
	// chunk from a task queue).
	SchedOverhead float64
	// MsgPerturb, when non-nil, rewrites every non-local message cost
	// before MsgTime/BroadcastTime return it — the hook fault injection
	// uses to model link delay and lossy retransmission without the
	// executors knowing. Nil means the cost model is exact.
	MsgPerturb func(float64) float64
}

// DefaultConfig models an Ncube-2-like machine in task-time units,
// calibrated so that a typical application task (a few units) costs an
// order of magnitude more than a message — the regime of the paper's
// coarse-grained applications, whose cells/columns/gates each
// represent substantial computation.
func DefaultConfig(p int) Config {
	return Config{
		Processors:    p,
		MsgOverhead:   0.05,
		HopLatency:    0.005,
		ByteCost:      0.000125,
		SchedOverhead: 0.025,
	}
}

// Hops returns the hypercube distance between two processors.
func Hops(a, b int) int { return bits.OnesCount(uint(a ^ b)) }

// MsgTime reports the cost of sending bytes from processor a to b.
// Local "messages" are free.
func (c Config) MsgTime(a, b int, bytes int64) float64 {
	if a == b {
		return 0
	}
	t := c.MsgOverhead + float64(Hops(a, b))*c.HopLatency + float64(bytes)*c.ByteCost
	if c.MsgPerturb != nil {
		t = c.MsgPerturb(t)
	}
	return t
}

// BroadcastTime reports the cost of a tree broadcast (or reduction)
// over p processors: log2(p) sequential message steps.
func (c Config) BroadcastTime(p int, bytes int64) float64 {
	if p <= 1 {
		return 0
	}
	depth := math.Ceil(math.Log2(float64(p)))
	t := depth * (c.MsgOverhead + c.HopLatency + float64(bytes)*c.ByteCost)
	if c.MsgPerturb != nil {
		t = c.MsgPerturb(t)
	}
	return t
}

// event is one scheduled callback, pooled in the Sim's arena. Exactly
// one of fn and cfn is set. The next field threads the free list. Its
// time and sequence number live in its heap key.
type event struct {
	fn   func()
	cfn  func(int)
	arg  int
	next int32
}

// key is one heap entry: an event's ordering fields beside its arena
// slot, so sifting compares keys without touching the arena.
type key struct {
	time float64
	seq  int64
	id   int32
}

// nilEvent marks the end of the free list.
const nilEvent = int32(-1)

// Sim is a discrete-event simulator. The zero value is not usable; use
// NewSim.
type Sim struct {
	cfg Config
	// arena pools every event ever scheduled; freed slots are chained
	// through event.next and reused, so steady-state scheduling does
	// not allocate.
	arena []event
	free  int32
	// heap is a 4-ary min-heap of keys ordered by (time, seq). 4-ary
	// halves the tree depth vs binary, trading slightly more
	// comparisons per level for fewer cache lines touched per sift —
	// the usual win for simulation event loops.
	heap []key
	now  float64
	seq  int64
	ran  int64
}

// NewSim creates a simulator over the given machine.
func NewSim(cfg Config) *Sim {
	if cfg.Processors < 1 {
		panic("machine: need at least one processor")
	}
	return &Sim{cfg: cfg, free: nilEvent}
}

// Config returns the machine description.
func (s *Sim) Config() Config { return s.cfg }

// Now reports the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// Events reports how many events have executed.
func (s *Sim) Events() int64 { return s.ran }

// alloc takes an event slot off the free list, growing the arena only
// when no freed slot is available.
func (s *Sim) alloc(t float64) int32 {
	if t < s.now {
		panic(fmt.Sprintf("machine: scheduling into the past (%g < %g)", t, s.now))
	}
	var id int32
	if s.free != nilEvent {
		id = s.free
		s.free = s.arena[id].next
	} else {
		s.arena = append(s.arena, event{})
		id = int32(len(s.arena) - 1)
	}
	return id
}

// release returns an event slot to the free list, dropping callback
// references so the arena does not pin dead closures.
func (s *Sim) release(id int32) {
	e := &s.arena[id]
	e.fn = nil
	e.cfn = nil
	e.next = s.free
	s.free = id
}

// At schedules fn at absolute time t (>= Now). Events at equal times
// run in scheduling order, keeping the simulation deterministic.
// Each call boxes the supplied closure; hot paths that would otherwise
// create a fresh closure per event should use AtFn.
func (s *Sim) At(t float64, fn func()) {
	id := s.alloc(t)
	s.arena[id].fn = fn
	s.push(t, id)
}

// After schedules fn delay units from now.
func (s *Sim) After(delay float64, fn func()) { s.At(s.now+delay, fn) }

// AtFn schedules fn(arg) at absolute time t (>= Now). Unlike At, the
// callback is a long-lived function value plus an integer argument
// (typically a processor id), so scheduling allocates nothing: callers
// build one callback per purpose and reuse it for every event.
func (s *Sim) AtFn(t float64, fn func(int), arg int) {
	id := s.alloc(t)
	e := &s.arena[id]
	e.cfn = fn
	e.arg = arg
	s.push(t, id)
}

// AfterFn schedules fn(arg) delay units from now, allocation-free.
func (s *Sim) AfterFn(delay float64, fn func(int), arg int) { s.AtFn(s.now+delay, fn, arg) }

// less orders keys by (time, seq): deterministic FIFO at equal times.
func less(a, b key) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push inserts slot id at time t into the 4-ary heap, numbered after
// every event scheduled before it.
func (s *Sim) push(t float64, id int32) {
	s.seq++
	k := key{time: t, seq: s.seq, id: id}
	s.heap = append(s.heap, k)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !less(k, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
}

// popMin removes and returns the earliest event's key.
func (s *Sim) popMin() key {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	k := h[last]
	h = h[:last]
	s.heap = h
	// Sift the old last key down from the root: promote the smallest
	// of up to four children into the hole until k fits.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		least := first
		end := min(first+4, last)
		for c := first + 1; c < end; c++ {
			if less(h[c], h[least]) {
				least = c
			}
		}
		if !less(h[least], k) {
			break
		}
		h[i] = h[least]
		i = least
	}
	if i < last {
		h[i] = k
	}
	return top
}

// dispatch pops the earliest event, recycles its slot, and runs it.
// The slot is freed before the callback executes, so an event that
// schedules a successor reuses its own slot — the steady-state regime
// where the arena stops growing entirely.
func (s *Sim) dispatch() {
	k := s.popMin()
	e := &s.arena[k.id]
	s.now = k.time
	s.ran++
	fn, cfn, arg := e.fn, e.cfn, e.arg
	s.release(k.id)
	if cfn != nil {
		cfn(arg)
	} else {
		fn()
	}
}

// Run executes events until none remain, returning the final time.
func (s *Sim) Run() float64 {
	for len(s.heap) > 0 {
		s.dispatch()
	}
	return s.now
}

// Step executes a single event; it reports false when none remain.
func (s *Sim) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	s.dispatch()
	return true
}
