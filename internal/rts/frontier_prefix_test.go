package rts

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/machine"
	"orchestra/internal/sched"
)

// The completion bitset behind Frontier.Prefix, against a []bool
// reference: page edges, whole-page runs and every order of arrival.

// prefixSizes straddle the word (64) and page (pageTasks) edges.
var prefixSizes = []int{1, 63, 64, pageTasks - 1, pageTasks, pageTasks + 1, 3*pageTasks + 5}

// oneOpFrontier is the Frontier of a graph with one n-task operator,
// started.
func oneOpFrontier(tb testing.TB, n int) *Frontier {
	tb.Helper()
	g := delirium.NewGraph("prefix")
	if err := g.AddNode(&delirium.Node{Name: "a", Kind: delirium.Par}); err != nil {
		tb.Fatal(err)
	}
	spec := OpSpec{Op: sched.Op{Name: "a", N: n, Time: func(int) float64 { return 1 }}}
	f, err := NewFrontier(g, func(string) OpSpec { return spec }, false, machine.Config{}, 1, Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	var pr Progress
	f.Start(&pr)
	return f
}

// checkPrefix completes the disjoint runs, which cover [0, n), in the
// order given, and after every Complete compares Prefix with the
// longest completed prefix of a []bool reference.
func checkPrefix(t *testing.T, n int, runs [][2]int) {
	t.Helper()
	f := oneOpFrontier(t, n)
	done := make([]bool, n)
	want := 0
	var pr Progress
	for i, r := range runs {
		f.Complete(0, r[0], r[1], &pr)
		for j := r[0]; j < r[1]; j++ {
			done[j] = true
		}
		for want < n && done[want] {
			want++
		}
		if got := f.Prefix(0); got != want {
			t.Fatalf("n=%d: after run %d [%d, %d) of %v: prefix %d, want %d", n, i, r[0], r[1], runs, got, want)
		}
	}
	if !f.Full(0) || f.Outstanding() != 0 || f.ops[0].pages != nil {
		t.Fatalf("n=%d: full=%v outstanding=%d pages kept=%v", n, f.Full(0), f.Outstanding(), f.ops[0].pages != nil)
	}
}

// randomRuns cuts [0, n) into runs — a whole page where one starts on
// a page edge a quarter of the time, else short or long — and shuffles
// them.
func randomRuns(rng *rand.Rand, n int) [][2]int {
	var runs [][2]int
	for lo := 0; lo < n; {
		k := 1 + rng.Intn(70)
		switch {
		case lo%pageTasks == 0 && lo+pageTasks <= n && rng.Intn(4) == 0:
			k = pageTasks
		case rng.Intn(3) == 0:
			k = 1 + rng.Intn(2*pageTasks)
		}
		hi := min(n, lo+k)
		runs = append(runs, [2]int{lo, hi})
		lo = hi
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	return runs
}

func TestFrontierPrefixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range prefixSizes {
		// In order, one whole page at a time, and reversed.
		var pages, rev [][2]int
		for lo := 0; lo < n; lo += pageTasks {
			pages = append(pages, [2]int{lo, min(n, lo+pageTasks)})
		}
		for i := len(pages) - 1; i >= 0; i-- {
			rev = append(rev, pages[i])
		}
		checkPrefix(t, n, pages)
		checkPrefix(t, n, rev)
		for trial := 0; trial < 20; trial++ {
			checkPrefix(t, n, randomRuns(rng, n))
		}
	}
}

// TestFrontierOutOfOrderMemory bounds what out-of-order completions
// cost on a large operator: eight chunks, one of them a whole page,
// take the page table and seven pages, not a bitset over every task.
// It guards peak memory on streaming workloads, whose operators have
// millions of tasks.
func TestFrontierOutOfOrderMemory(t *testing.T) {
	const n = 1 << 22
	var pr Progress
	complete8 := func(f *Frontier) {
		for k := 1; k <= 7; k++ {
			lo := k*(n/8) + 7
			f.Complete(0, lo, lo+1000, &pr)
		}
		f.Complete(0, 900*pageTasks, 901*pageTasks, &pr)
	}
	// TotalAlloc is process-wide, so any other goroutine's allocation
	// lands in a measured window: the byte bound holds for the smallest
	// of several fresh frontiers.
	const runs, tries = 10, 5
	fs := make([]*Frontier, runs+1+tries)
	for i := range fs {
		fs[i] = oneOpFrontier(t, n)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		complete8(fs[next])
		next++
	})
	if allocs > 8 {
		t.Errorf("eight out-of-order chunks: %v allocations, want ≤ 8", allocs)
	}
	least := uint64(math.MaxUint64)
	for range tries {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		complete8(fs[next])
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if got := fs[next].Prefix(0); got != 0 {
			t.Errorf("prefix %d with task 0 incomplete", got)
		}
		next++
	}
	if least > 16<<10 {
		t.Errorf("eight out-of-order chunks allocated at least %d bytes, want ≤ 16 KiB", least)
	}
}

// FuzzFrontierPrefix completes an n-task operator in runs whose lengths
// come from cuts (two bytes each; the rest of [0, n) is the last run),
// in the order a seeded shuffle picks, against the reference.
func FuzzFrontierPrefix(f *testing.F) {
	page := []byte{(pageTasks - 1) >> 8, (pageTasks - 1) & 0xff} // a run of pageTasks
	for i, n := range prefixSizes {
		f.Add(uint16(n-1), int64(i), []byte{0, 0, 0, 62, 0, 63})
		f.Add(uint16(n-1), int64(i+100), append(append([]byte{}, page...), page...))
		f.Add(uint16(n-1), int64(i+200), []byte{0x10, 0x01, 0x00, 0x05, 0x1f, 0xff})
	}
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64, cuts []byte) {
		n := 1 + int(nRaw)%(4*pageTasks) // the seeds pass n-1
		var runs [][2]int
		lo := 0
		for i := 0; i+1 < len(cuts) && lo < n; i += 2 {
			k := 1 + (int(cuts[i])<<8|int(cuts[i+1]))%(2*pageTasks)
			runs = append(runs, [2]int{lo, min(n, lo+k)})
			lo = min(n, lo+k)
		}
		if lo < n {
			runs = append(runs, [2]int{lo, n})
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
		checkPrefix(t, n, runs)
	})
}
