package native

import (
	"runtime"
	"testing"
)

// BenchmarkHotpathDequePushPop measures the owner's uncontended
// LIFO path: one push + one pop per iteration, no thieves.
func BenchmarkHotpathDequePushPop(b *testing.B) {
	var d deque
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i & 0xffff
		d.push(segment{op: 1, lo: lo, hi: lo + 1})
		if _, ok := d.pop(); !ok {
			b.Fatal("pop failed")
		}
	}
}

// BenchmarkHotpathDequeSteal measures the thief's locked path against
// a quiescent owner: batches are pushed and then stolen back FIFO.
func BenchmarkHotpathDequeSteal(b *testing.B) {
	var d deque
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		batch := 1024
		if b.N-done < batch {
			batch = b.N - done
		}
		for j := 0; j < batch; j++ {
			d.push(segment{op: 1, lo: j, hi: j + 1})
		}
		for j := 0; j < batch; j++ {
			if _, ok := d.steal(); !ok {
				b.Fatal("steal failed")
			}
		}
		done += batch
	}
}

// BenchmarkHotpathParkerCancel measures the fast path a worker takes
// when work appears during its final re-check: prepare + self-cancel,
// two uncontended atomic operations.
func BenchmarkHotpathParkerCancel(b *testing.B) {
	var pk parker
	pk.init()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk.prepare()
		if !pk.cancel() {
			pk.consume()
		}
	}
}

// BenchmarkHotpathParkerPingPong measures a full park/unpark handoff
// between two goroutines: the cost of putting a worker to sleep and
// waking it with a token.
func BenchmarkHotpathParkerPingPong(b *testing.B) {
	var pk parker
	pk.init()
	abort := make(chan struct{})
	go func() {
		for {
			pk.prepare()
			if !pk.block(abort) {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !pk.unpark() {
			runtime.Gosched()
		}
	}
	b.StopTimer()
	close(abort)
}
