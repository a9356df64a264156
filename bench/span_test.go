package main

import (
	"testing"
	"time"
)

func busy(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// Child spans must lie inside their parents, share the op, and the self
// times must add up to the root span: nothing counted twice, nothing
// lost.
func TestSpansNestAndSelfTimesSum(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", -1)
	busy(200 * time.Microsecond)
	a := tr.begin("bind", root)
	busy(300 * time.Microsecond)
	tr.end(a)
	b := tr.begin("run", root)
	c := tr.begin("chunk", b)
	busy(300 * time.Microsecond)
	tr.end(c)
	busy(100 * time.Microsecond)
	tr.end(b)
	tr.end(root)
	other := tr.begin("op", -1)
	tr.end(other)

	for i, s := range tr.spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := tr.spans[s.Parent]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("span %d (%s) is not inside its parent %s", i, s.Name, p.Name)
		}
		if s.OpID != p.OpID {
			t.Errorf("span %d (%s) has op %d, its parent %d", i, s.Name, s.OpID, p.OpID)
		}
	}
	if tr.spans[root].OpID == tr.spans[other].OpID {
		t.Error("two root spans share an op")
	}
	var sum time.Duration
	for _, d := range tr.selfTimes() {
		sum += d
	}
	roots := tr.spans[root].EndNS - tr.spans[root].StartNS + tr.spans[other].EndNS - tr.spans[other].StartNS
	if sum != time.Duration(roots) {
		t.Errorf("self times sum to %v, the root spans to %v", sum, time.Duration(roots))
	}
}

// Children that overlap (concurrent calls) are covered once.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "op", StartNS: 0, EndNS: 100, Parent: -1, OpID: 1},
		{Name: "a", StartNS: 10, EndNS: 60, Parent: 0, OpID: 1},
		{Name: "b", StartNS: 40, EndNS: 90, Parent: 0, OpID: 1},
	}
	if got := tr.selfTimes()["op"]; got != 20 {
		t.Errorf("self time of op = %d ns, want 20", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("op", -1)
	tr.end(id)
	tr.countEvents(nil)
	if id != -1 {
		t.Errorf("nil tracer handed out span %d", id)
	}
}
