package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/obs"
)

// span is one call into a layer, recorded from the benchmark's side of
// the call. Times are nanoseconds since the tracer was made; Parent is
// the index of the span that caused this one (-1 for a root); spans of
// one op share OpID.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin returns -1 and end does nothing, so call sites
// look the same traced or not.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int
	// events counts the engine events the sinks of traced ops received.
	events atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span. A root (parent -1) starts a new op; a child takes
// its parent's op.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	var op int
	if parent < 0 {
		t.ops++
		op = t.ops
	} else {
		op = t.spans[parent].OpID
	}
	t.spans = append(t.spans, span{Name: name, StartNS: now, EndNS: -1, Parent: parent, OpID: op})
	return len(t.spans) - 1
}

// countEvents adds the events of one traced engine run.
func (t *tracer) countEvents(tr *obs.Trace) {
	if t != nil && tr != nil {
		t.events.Add(int64(len(tr.Events)))
	}
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover (children that overlap are counted
// once).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.EndNS - s.StartNS - covered(children[i], s.StartNS, s.EndNS))
	}
	return self
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	at := lo
	for _, x := range iv {
		s, e := max(x[0], at), min(x[1], hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// write stores the spans and per-layer counts as one JSON document.
func (t *tracer) write(path string, counts map[string]float64) error {
	t.mu.Lock()
	doc := struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{t.spans, counts}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
