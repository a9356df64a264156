package native

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
)

func TestDequeOwnerLIFOThiefFIFO(t *testing.T) {
	var d deque
	for i := 0; i < 3; i++ {
		d.push(segment{op: i, lo: 0, hi: 1})
	}
	if s, ok := d.steal(); !ok || s.op != 0 {
		t.Fatalf("steal got %+v ok=%v, want oldest (op 0)", s, ok)
	}
	if s, ok := d.pop(); !ok || s.op != 2 {
		t.Fatalf("pop got %+v ok=%v, want newest (op 2)", s, ok)
	}
	if s, ok := d.pop(); !ok || s.op != 1 {
		t.Fatalf("pop got %+v ok=%v, want op 1", s, ok)
	}
	if _, ok := d.pop(); ok {
		t.Fatal("pop on empty deque reported ok")
	}
	if _, ok := d.steal(); ok {
		t.Fatal("steal on empty deque reported ok")
	}
	if d.size() != 0 {
		t.Fatalf("size = %d, want 0", d.size())
	}
}

// TestExecuteRejectsOversizedOp checks the engine's size bound on a
// submitted graph: MaxTasks is exclusive, so an operator of exactly
// MaxTasks tasks must be rejected (this was a real off-by-one — the
// guard used > instead of >=).
func TestExecuteRejectsOversizedOp(t *testing.T) {
	g := delirium.NewGraph("big")
	if err := g.AddNode(&delirium.Node{Name: "a", Kind: delirium.Par}); err != nil {
		t.Fatal(err)
	}
	bind := func(name string) rts.OpSpec {
		return rts.OpSpec{Op: sched.Op{Name: name, N: MaxTasks,
			Time: func(i int) float64 { return 1 }}, Mu: 1}
	}
	if _, err := (Backend{}).Run(g, rts.BindClosure(bind), rts.RunOpts{Processors: 1, Mode: rts.ModeSplit}); err == nil {
		t.Fatalf("Execute accepted an operator with %d tasks", MaxTasks)
	}
}

// TestExpansionRejectsOversized holds the engine's size bound for
// operators that only exist once an expansion has run: a sub-graph
// with an oversized operator, or one that grows the table past maxOps,
// must fail the run with an error — both when the expandable operator
// is a source (it expands during single-threaded set-up) and when it
// expands on a worker mid-run, where an operator table that disagrees
// with the Frontier would crash the process instead.
func TestExpansionRejectsOversized(t *testing.T) {
	unit := func(int) float64 { return 1 }
	subs := map[string]func() *rts.Expansion{
		"tasks": func() *rts.Expansion {
			sg := delirium.NewGraph("x")
			sg.AddNode(&delirium.Node{Name: "x/0", Kind: delirium.Par})
			return &rts.Expansion{Graph: sg, Bind: func(name string) rts.OpSpec {
				return rts.OpSpec{Op: sched.Op{Name: name, N: MaxTasks, Time: unit}, Mu: 1}
			}}
		},
		"ops": func() *rts.Expansion {
			sg := delirium.NewGraph("x")
			for i := 0; i < maxOps; i++ {
				sg.AddNode(&delirium.Node{Name: fmt.Sprintf("x/%d", i), Kind: delirium.Par})
			}
			return &rts.Expansion{Graph: sg, Bind: func(name string) rts.OpSpec {
				return rts.OpSpec{Op: sched.Op{Name: name, N: 1, Time: unit}, Mu: 1}
			}}
		},
	}
	for what, sub := range subs {
		for _, midRun := range []bool{false, true} {
			g := delirium.NewGraph("big")
			g.AddNode(&delirium.Node{Name: "x", Kind: delirium.Exp, Rule: "r"})
			if midRun {
				g.AddNode(&delirium.Node{Name: "a", Kind: delirium.Par})
				g.AddEdge(&delirium.Edge{From: "a", To: "x"})
			}
			bind := func(name string) rts.OpSpec {
				spec := rts.OpSpec{Op: sched.Op{Name: name, N: 64, Time: unit}, Mu: 1}
				if name == "x" {
					spec.Expand = func(int) (*rts.Expansion, error) { return sub(), nil }
				}
				return spec
			}
			for _, mode := range []rts.Mode{rts.ModeSplit, rts.ModeTaper} {
				_, err := (Backend{}).Run(g, rts.BindClosure(bind), rts.RunOpts{Processors: 4, Mode: mode})
				if err == nil || !strings.Contains(err.Error(), "expanding x") || !strings.Contains(err.Error(), "limit") {
					t.Fatalf("%s midRun=%v mode=%v: error = %v, want the expansion refused at the size limit", what, midRun, mode, err)
				}
			}
		}
	}
}

// TestDequeLastElementRace targets the arbitration over a deque's
// final segment: one owner pops while one thief steals, with exactly
// one element present each round. Exactly one side must win every
// round — a double grant corrupts task accounting, a double miss
// loses the segment. Run with -race.
func TestDequeLastElementRace(t *testing.T) {
	const rounds = 20000
	var d deque
	var popWins, stealWins atomic.Int64
	ready := make(chan struct{})
	taken := make(chan bool)
	go func() {
		for range ready {
			_, ok := d.steal()
			if ok {
				stealWins.Add(1)
			}
			taken <- ok
		}
	}()
	for i := 0; i < rounds; i++ {
		d.push(segment{op: 0, lo: i, hi: i + 1})
		ready <- struct{}{}
		_, ok := d.pop()
		if ok {
			popWins.Add(1)
		}
		stole := <-taken
		if ok == stole {
			t.Fatalf("round %d: pop=%v steal=%v, want exactly one winner", i, ok, stole)
		}
	}
	close(ready)
	if popWins.Load()+stealWins.Load() != rounds {
		t.Fatalf("wins %d+%d != %d rounds", popWins.Load(), stealWins.Load(), rounds)
	}
}

// TestDequeGrowthUnderSteal forces repeated growth and compaction of
// the backing array (bursts of pushes while thieves take from the
// front) and checks exact-once consumption. Run with -race: the hazard
// is a slot moved or reused while a thief reads it.
func TestDequeGrowthUnderSteal(t *testing.T) {
	const (
		thieves = 4
		bursts  = 50
		burst   = 200
	)
	var d deque
	total := bursts * burst
	seen := make([]atomic.Int32, total)
	var consumed atomic.Int64
	record := func(s segment) {
		if n := seen[s.lo].Add(1); n != 1 {
			t.Errorf("segment %d consumed %d times", s.lo, n)
		}
		consumed.Add(1)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if s, ok := d.steal(); ok {
					record(s)
					continue
				}
				select {
				case <-done:
					for {
						s, ok := d.steal()
						if !ok {
							return
						}
						record(s)
					}
				default:
				}
			}
		}()
	}
	next := 0
	for b := 0; b < bursts; b++ {
		for i := 0; i < burst; i++ {
			d.push(segment{op: 0, lo: next, hi: next + 1})
			next++
		}
		// A few pops between bursts keep the owner end active while
		// the deque is at its largest.
		for i := 0; i < 8; i++ {
			if s, ok := d.pop(); ok {
				record(s)
			}
		}
	}
	close(done)
	wg.Wait()
	for {
		s, ok := d.pop()
		if !ok {
			break
		}
		record(s)
	}
	if consumed.Load() != int64(total) {
		t.Fatalf("consumed %d segments, want %d", consumed.Load(), total)
	}
}

// TestDequeStealContention hammers one deque from an owner (push+pop)
// and many thieves concurrently and checks that every segment is
// consumed exactly once. Run with -race to check the locking.
func TestDequeStealContention(t *testing.T) {
	const (
		thieves = 8
		items   = 2000
	)
	var d deque
	seen := make([]atomic.Int32, items)
	var consumed atomic.Int64
	record := func(s segment) {
		if n := seen[s.lo].Add(1); n != 1 {
			t.Errorf("segment %d consumed %d times", s.lo, n)
		}
		consumed.Add(1)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if s, ok := d.steal(); ok {
					record(s)
					continue
				}
				select {
				case <-done:
					// Drain anything published after the last failed steal.
					for {
						s, ok := d.steal()
						if !ok {
							return
						}
						record(s)
					}
				default:
				}
			}
		}()
	}
	// Owner interleaves pushes with occasional pops.
	for i := 0; i < items; i++ {
		d.push(segment{op: 0, lo: i, hi: i + 1})
		if i%3 == 0 {
			if s, ok := d.pop(); ok {
				record(s)
			}
		}
	}
	close(done)
	wg.Wait()
	// The owner drains whatever the thieves left behind.
	for {
		s, ok := d.pop()
		if !ok {
			break
		}
		record(s)
	}
	if consumed.Load() != items {
		t.Fatalf("consumed %d segments, want %d", consumed.Load(), items)
	}
}

// TestDequeManyPushers covers foreign pushes: several goroutines push
// disjoint segments into one deque while its owner pops and two thieves
// steal. Every segment must come out exactly once. Run with -race.
func TestDequeManyPushers(t *testing.T) {
	const (
		pushers = 4
		each    = 2000
		total   = pushers * each
	)
	var d deque
	seen := make([]atomic.Int32, total)
	var consumed atomic.Int64
	record := func(s segment) {
		if n := seen[s.lo].Add(1); n != 1 {
			t.Errorf("segment %d consumed %d times", s.lo, n)
		}
		consumed.Add(1)
	}
	take := func(get func() (segment, bool)) {
		for consumed.Load() < total {
			if s, ok := get(); ok {
				record(s)
			} else {
				runtime.Gosched()
			}
		}
	}
	var pushWG, takeWG sync.WaitGroup
	for p := 0; p < pushers; p++ {
		pushWG.Add(1)
		go func() {
			defer pushWG.Done()
			for i := p * each; i < (p+1)*each; i++ {
				d.push(segment{op: p, lo: i, hi: i + 1})
			}
		}()
	}
	for i := 0; i < 2; i++ {
		takeWG.Add(1)
		go func() {
			defer takeWG.Done()
			take(d.steal)
		}()
	}
	take(d.pop)
	pushWG.Wait()
	takeWG.Wait()
	if consumed.Load() != total || d.size() != 0 {
		t.Fatalf("consumed %d segments, %d left queued; want %d and 0", consumed.Load(), d.size(), total)
	}
}
