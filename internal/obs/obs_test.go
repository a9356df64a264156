package obs

import (
	"sync"
	"testing"

	"orchestra/internal/trace"
)

// TestNilRecorderIsSafe checks the nil-sink fast path: every emit
// method must be a no-op on a nil receiver.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Chunk(0, 0, 0, 8, 0, 1, false)
	r.Steal(1, 0, 0, 0, 4, 2)
	r.Taper(0, 0, 100, 10, 5, 1, 0.5, 3)
	r.Gate(0, 0, 0, 16, 4)
	r.Alloc(AllocEstimate{Op: "a"})
	if r.Finish(trace.Result{}) != nil {
		t.Fatal("nil recorder must Finish to a nil trace")
	}
}

// TestFinishMergesAndSorts checks that Finish merges per-worker rings
// into one timeline ordered by start time.
func TestFinishMergesAndSorts(t *testing.T) {
	r := NewRecorder("sim", "", []string{"a", "b"}, 3)
	// Emit out of global order across workers.
	r.Chunk(2, 0, 0, 4, 5.0, 6.0, false)
	r.Chunk(0, 0, 4, 4, 1.0, 2.0, false)
	r.Chunk(1, 1, 0, 4, 3.0, 4.0, true)
	r.Steal(1, 2, 1, 0, 4, 2.5)
	res := trace.Result{Name: "t", Processors: 3, Makespan: 6}
	tr := r.Finish(res)
	if tr.Backend != "sim" || tr.Workers != 3 || len(tr.Ops) != 2 {
		t.Fatalf("trace metadata: %+v", tr)
	}
	if tr.Result.Makespan != 6 {
		t.Fatal("result not attached")
	}
	if len(tr.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(tr.Events))
	}
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].T0 < tr.Events[i-1].T0 {
			t.Fatalf("events not time-sorted at %d: %v after %v",
				i, tr.Events[i].T0, tr.Events[i-1].T0)
		}
	}
	if tr.Events[1].Kind != KindSteal || tr.Events[1].Arg != 2 {
		t.Fatalf("steal event lost its victim: %+v", tr.Events[1])
	}
	if tr.Dropped != 0 {
		t.Fatalf("dropped %d events from unfilled rings", tr.Dropped)
	}
	if tr.OpName(0) != "a" || tr.OpName(1) != "b" || tr.OpName(-1) != "?" || tr.OpName(9) != "?" {
		t.Fatal("OpName resolution broken")
	}
}

// TestRingOverwriteKeepsRecentWindow fills a ring past capacity and
// checks that the oldest events are dropped, counted, and the survivors
// are the most recent ones.
func TestRingOverwriteKeepsRecentWindow(t *testing.T) {
	r := NewRecorder("sim", "", []string{"a"}, 1)
	const extra = 100
	for i := 0; i < ringCap+extra; i++ {
		r.Chunk(0, 0, i, 1, float64(i), float64(i)+0.5, false)
	}
	tr := r.Finish(trace.Result{})
	if tr.Dropped != extra {
		t.Fatalf("Dropped = %d, want %d", tr.Dropped, extra)
	}
	if len(tr.Events) != ringCap {
		t.Fatalf("kept %d events, want %d", len(tr.Events), ringCap)
	}
	if first := tr.Events[0]; first.Lo != extra {
		t.Fatalf("oldest surviving event is task %d, want %d (most recent window)",
			first.Lo, extra)
	}
	if last := tr.Events[len(tr.Events)-1]; last.Lo != ringCap+extra-1 {
		t.Fatalf("newest event is task %d, want %d", last.Lo, ringCap+extra-1)
	}
}

// TestWorkerIndexClamped checks that an out-of-range worker index is
// clamped rather than panicking (defensive: backends own their ids).
func TestWorkerIndexClamped(t *testing.T) {
	r := NewRecorder("native", "s", []string{"a"}, 2)
	r.Chunk(-1, 0, 0, 1, 0, 1, false)
	r.Chunk(7, 0, 1, 1, 1, 2, false)
	if tr := r.Finish(trace.Result{}); len(tr.Events) != 2 {
		t.Fatalf("clamped emits lost: %d events", len(tr.Events))
	}
}

// TestConcurrentEmission drives the single-writer-per-ring contract
// under the race detector: one goroutine per worker hammering its own
// ring while others record allocation rows through the mutex path.
func TestConcurrentEmission(t *testing.T) {
	const workers, events = 8, 4000
	r := NewRecorder("native", "s", []string{"a", "b"}, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				switch i % 4 {
				case 0:
					r.Chunk(w, i%2, i, 4, float64(i), float64(i+1), i%8 == 0)
				case 1:
					r.Taper(w, i%2, events-i, 4, i, 1.0, 0.1, float64(i))
				case 2:
					r.Steal(w, (w+1)%workers, i%2, i, 2, float64(i))
				case 3:
					r.Gate(w, i%2, i, i+4, float64(i))
				}
			}
			r.Alloc(AllocEstimate{Op: "a", Procs: w + 1})
		}(w)
	}
	wg.Wait()
	tr := r.Finish(trace.Result{})
	if got := len(tr.Events) + tr.Dropped; got != workers*events {
		t.Fatalf("events + dropped = %d, want %d", got, workers*events)
	}
	if len(tr.Allocs) != workers {
		t.Fatalf("allocs = %d, want %d", len(tr.Allocs), workers)
	}
}

// BenchmarkEmitDisabled measures the nil-sink fast path: the cost a
// disabled run pays per would-be event; end to end it is part of
// bench's native.overhead_us_per_chunk.
func BenchmarkEmitDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Chunk(0, 0, i, 16, 0, 1, false)
	}
}

// BenchmarkEmitEnabled measures the hot ring-store path with tracing on.
func BenchmarkEmitEnabled(b *testing.B) {
	r := NewRecorder("native", "s", []string{"a"}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Chunk(0, 0, i, 16, 0, 1, false)
	}
}
