package native

import (
	"sync"
	"sync/atomic"
)

// segment is a contiguous range [lo, hi) of one operator's tasks, the
// unit of work the scheduler moves between workers. Workers carve
// TAPER-sized chunks off a segment's front and push the remainder
// back, so a segment shrinks as it is consumed.
type segment struct {
	op     int
	lo, hi int
}

func (s segment) len() int { return s.hi - s.lo }

// deque is one worker's work queue: a mutex-guarded double-ended queue
// of segments, the only place a ready segment waits. Any worker may
// push at the bottom, so a release lands directly on its target. The
// owner pops at the bottom (LIFO — the most recently split remainder,
// still cache-warm); thieves steal at the top (FIFO — the oldest and
// typically largest segment, so a single steal moves substantial
// work). The lock makes every move of a segment exactly one pop or
// steal; n mirrors the length so emptiness checks take no lock.
type deque struct {
	mu   sync.Mutex
	segs []segment // queued segments are segs[head:], oldest first
	head int
	n    atomic.Int32
}

// reset empties the deque, keeping its backing array — the deque half
// of a pooled worker's arena.
func (d *deque) reset() {
	d.mu.Lock()
	d.segs, d.head = d.segs[:0], 0
	d.n.Store(0)
	d.mu.Unlock()
}

// push adds a segment at the bottom. Any worker may call it. A full
// backing array whose front half was stolen is compacted instead of
// grown, so steals at the top never leak capacity.
func (d *deque) push(s segment) {
	d.mu.Lock()
	if len(d.segs) == cap(d.segs) && 2*d.head >= len(d.segs) {
		d.segs = d.segs[:copy(d.segs, d.segs[d.head:])]
		d.head = 0
	}
	d.segs = append(d.segs, s)
	d.n.Add(1)
	d.mu.Unlock()
}

// pop removes the bottom segment (owner end, LIFO).
func (d *deque) pop() (segment, bool) {
	if d.n.Load() == 0 {
		return segment{}, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == len(d.segs) {
		return segment{}, false
	}
	s := d.segs[len(d.segs)-1]
	d.segs = d.segs[:len(d.segs)-1]
	d.taken()
	return s, true
}

// steal removes the top segment (thief end, FIFO).
func (d *deque) steal() (segment, bool) {
	if d.n.Load() == 0 {
		return segment{}, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == len(d.segs) {
		return segment{}, false
	}
	s := d.segs[d.head]
	d.head++
	d.taken()
	return s, true
}

// taken accounts for one removed segment and rewinds an emptied deque
// to the front of its backing array. Caller holds mu.
func (d *deque) taken() {
	d.n.Add(-1)
	if d.head == len(d.segs) {
		d.segs, d.head = d.segs[:0], 0
	}
}

// size reports the number of queued segments; to anyone racing a push
// or a take it is a snapshot.
func (d *deque) size() int { return int(d.n.Load()) }
