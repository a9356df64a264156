package serve

import (
	"fmt"
	"runtime"
	"testing"

	"orchestra/internal/rts"
)

// BenchmarkSubmitHot is the daemon layer of the per-layer cost budget:
// one in-process synchronous Submit of the paper's figure 1 per
// iteration — graph-cache hit, admission, bind, pool lease, engine,
// digest — from GOMAXPROCS callers on a pool of the same size, which is
// what bench's serve-hot drives with HTTP taken away. The sub-benchmarks
// differ only in how many jobs the daemon served before the timer
// started; ns/op, B/op and allocs/op must agree between them within
// noise, because a job costs what the job costs, not what the history
// does. B/op excludes the kernels' memory image, which a warm job
// takes from its graph's idle Bounds.
func BenchmarkSubmitHot(b *testing.B) {
	req := SubmitRequest{Program: figure1(b), Binder: "kernel", Mode: "split"}
	for _, history := range []int{0, 5000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			s := New(Config{PoolSize: runtime.GOMAXPROCS(0), DefaultMode: rts.ModeSplit})
			defer s.Close()
			// The first submission fills the graph cache; the rest are the
			// history.
			for i := 0; i < history+1; i++ {
				if _, err := s.Submit(req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					j, err := s.Submit(req)
					if err != nil {
						b.Error(err)
						return
					}
					if st := j.Status(); st.State != StateDone {
						b.Errorf("job %s: %s (%s)", st.ID, st.State, st.Error)
						return
					}
				}
			})
		})
	}
}
