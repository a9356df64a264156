package sched

import (
	"math"
	"slices"
	"testing"

	"orchestra/internal/stats"
)

func hintedOp(n int, seed uint64) Op {
	rng := stats.NewRNG(seed)
	times := make([]float64, n)
	for i := range times {
		if rng.Bernoulli(0.3) {
			times[i] = rng.Uniform(8, 16)
		} else {
			times[i] = 0.8
		}
	}
	return Op{
		Name:  "hinted",
		N:     n,
		Time:  func(i int) float64 { return times[i] },
		Bytes: 64,
		Hint:  func(i int) float64 { return times[i] },
	}
}

func TestBlockBounds(t *testing.T) {
	n, p := 100, 7
	covered := 0
	prevHi := 0
	for j := 0; j < p; j++ {
		lo, hi := BlockBounds(j, n, p)
		if lo != prevHi {
			t.Fatalf("block %d not contiguous: lo=%d prev=%d", j, lo, prevHi)
		}
		size := hi - lo
		if size != n/p && size != n/p+1 {
			t.Fatalf("block %d size %d not balanced", j, size)
		}
		covered += size
		prevHi = hi
	}
	if covered != n {
		t.Fatalf("blocks cover %d, want %d", covered, n)
	}
	// Degenerate cases.
	if lo, hi := BlockBounds(0, 5, 1); lo != 0 || hi != 5 {
		t.Fatal("single processor block")
	}
	if lo, hi := BlockBounds(7, 3, 10); lo != hi {
		t.Fatalf("empty block expected for j=7: [%d,%d)", lo, hi)
	}
}

func TestDecomposeWithoutHints(t *testing.T) {
	op := uniformOp(100, 1)
	queues := Decompose(op, 7)
	total := 0
	for j := range queues {
		total += queues[j].Remaining()
	}
	if total != 100 {
		t.Fatalf("queues cover %d tasks", total)
	}
}

func TestDecomposeCostBalanced(t *testing.T) {
	op := hintedOp(4096, 5)
	p := 256
	queues := Decompose(op, p)
	totalCost := 0.0
	for i := 0; i < op.N; i++ {
		totalCost += op.Hint(i)
	}
	target := totalCost / float64(p)
	covered := 0
	maxTask := 0.0
	for i := 0; i < op.N; i++ {
		if op.Hint(i) > maxTask {
			maxTask = op.Hint(i)
		}
	}
	for j := range queues {
		covered += queues[j].Remaining()
		cost := queues[j].EstRemaining(0)
		// Every block within target ± one max task.
		if cost > target+maxTask+1e-9 {
			t.Fatalf("queue %d cost %v exceeds target %v + max %v", j, cost, target, maxTask)
		}
	}
	if covered != op.N {
		t.Fatalf("queues cover %d tasks", covered)
	}
}

func TestDecomposeExpensiveFirstOrder(t *testing.T) {
	op := hintedOp(1024, 6)
	queues := Decompose(op, 16)
	for j := range queues {
		q := &queues[j]
		prev := math.Inf(1)
		for q.Remaining() > 0 {
			i := q.Take(1, op.Hint)[0]
			h := op.Hint(i)
			if h > prev+1e-9 {
				t.Fatalf("queue %d not sorted expensive-first", j)
			}
			prev = h
		}
	}
}

func TestTaskQueueTakeBudget(t *testing.T) {
	op := hintedOp(64, 7)
	queues := Decompose(op, 1)
	q := &queues[0]
	// Budget smaller than the front task still takes exactly one.
	got := q.TakeBudget(10, 0.001, op.Hint)
	if len(got) != 1 {
		t.Fatalf("minimal take = %d tasks", len(got))
	}
	// A generous budget takes up to k.
	got = q.TakeBudget(5, 1e9, op.Hint)
	if len(got) != 5 {
		t.Fatalf("generous take = %d tasks", len(got))
	}
	// A budget of ~2 expensive tasks stops there.
	front := op.Hint(q.NextTask())
	got = q.TakeBudget(50, front*2.2, op.Hint)
	if len(got) < 1 || len(got) > 4 {
		t.Fatalf("budgeted take = %d tasks", len(got))
	}
}

func TestTaskQueueRemHintConsistency(t *testing.T) {
	op := hintedOp(128, 8)
	queues := Decompose(op, 4)
	q := &queues[1]
	before := q.EstRemaining(0)
	taken := q.Take(3, op.Hint)
	sum := 0.0
	for _, i := range taken {
		sum += op.Hint(i)
	}
	after := q.EstRemaining(0)
	if math.Abs(before-sum-after) > 1e-9 {
		t.Fatalf("remHint drifted: %v - %v != %v", before, sum, after)
	}
}

func TestDecomposeSmallN(t *testing.T) {
	// Fewer tasks than processors must not panic and must cover all
	// tasks.
	op := hintedOp(5, 10)
	queues := Decompose(op, 16)
	total := 0
	for j := range queues {
		total += queues[j].Remaining()
	}
	if total != 5 {
		t.Fatalf("covered %d of 5", total)
	}
}

// victimCase is one row of the re-assignment scan: the simulator's
// dagRun.steal calls Victim with the Frontier's gate limit (an ungated
// operation's is its task count) and budgets a thief against EstTotal.
type victimCase struct {
	name        string
	queues      []TaskQueue
	done        []int
	spent       []float64
	mean        float64
	limit       int
	victim      int
	opRemaining float64
}

const victimN = 9 // every task index in victimCases is < victimN

func victimCases() []victimCase {
	q := func(remHint float64, tasks ...int) TaskQueue { return TaskQueue{tasks: tasks, remHint: remHint} }
	// A hinted queue taken to the end keeps whatever the float
	// subtractions left in remHint.
	emptied := TaskQueue{tasks: []int{0, 1}, pos: 2, remHint: 1e-13}
	const n = victimN
	return []victimCase{
		{"all queues empty", []TaskQueue{q(0), emptied}, []int{0, 2}, []float64{0, 2}, 1, n, -1, 0},
		// Before the first sample every estimate is zero; a non-empty
		// queue must still be found.
		{"no sample yet", []TaskQueue{q(0), q(0, 3, 4)}, []int{0, 0}, []float64{0, 0}, 0, n, 1, 0},
		{"equal estimates keep the first", []TaskQueue{q(0, 0, 1), q(0, 2, 3)}, []int{0, 0}, []float64{0, 0}, 2, n, 0, 8},
		// Owner 1 has been running at 10 per task against a mean of 2.
		{"owner rate above the mean wins", []TaskQueue{q(0, 0, 1, 2), q(0, 3, 4)}, []int{4, 1}, []float64{4, 10}, 2, n, 1, 26},
		{"owner rate below the mean is ignored", []TaskQueue{q(0, 0, 1, 2), q(0, 3, 4)}, []int{4, 1}, []float64{4, 1}, 2, n, 0, 10},
		// Hinted queues run expensive-first: queue 0's front is task 8,
		// beyond the gate, so its 100 units are counted but not offered.
		{"front beyond the gate is skipped", []TaskQueue{q(100, 8, 2, 3), q(1, 0, 1)}, []int{0, 0}, []float64{0, 0}, 1, 4, 1, 101},
		{"every front beyond the gate", []TaskQueue{q(100, 8, 2, 3), q(1, 5, 1)}, []int{0, 0}, []float64{0, 0}, 1, 4, -1, 101},
		{"limit = N gates nothing", []TaskQueue{q(100, 8, 2, 3), q(1, 0, 1)}, []int{0, 0}, []float64{0, 0}, 1, n, 0, 101},
		{"emptied queue's residue is not summed", []TaskQueue{emptied, q(5, 2)}, []int{2, 0}, []float64{2, 0}, 1, n, 1, 5},
	}
}

func TestVictim(t *testing.T) {
	for _, tc := range victimCases() {
		victim := Victim(tc.queues, tc.done, tc.spent, tc.mean, tc.limit)
		if victim != tc.victim {
			t.Errorf("%s: victim %d, want %d", tc.name, victim, tc.victim)
		}
		if tc.limit == victimN {
			// Ungated is limit = N: no larger limit changes the answer.
			if v := Victim(tc.queues, tc.done, tc.spent, tc.mean, math.MaxInt); v != victim {
				t.Errorf("%s: limit N gave %d but MaxInt gave %d", tc.name, victim, v)
			}
		}
	}
}

// TestEstTotal: the operation's remaining estimate counts every
// non-empty queue, gated or not, at the rate Victim ranks it by.
func TestEstTotal(t *testing.T) {
	for _, tc := range victimCases() {
		if got := EstTotal(tc.queues, tc.done, tc.spent, tc.mean); got != tc.opRemaining {
			t.Errorf("%s: remaining %v, want %v", tc.name, got, tc.opRemaining)
		}
	}
}

// TestTakeBudgetIgnoresBudgetBelowTwo pins what NeedsBudget rests on:
// at k ≤ 1, or without hints, TakeBudget takes the same tasks and
// leaves the same remHint whatever the budget, so a caller that skips
// computing one changes nothing.
func TestTakeBudgetIgnoresBudgetBelowTwo(t *testing.T) {
	op := hintedOp(64, 11)
	budgets := []float64{0, -1, math.NaN(), math.Inf(1), 1e-300}
	for _, tc := range []struct {
		k    int
		hint func(int) float64
	}{{0, op.Hint}, {1, op.Hint}, {0, nil}, {1, nil}, {2, nil}, {5, nil}, {64, nil}} {
		if NeedsBudget(tc.k, tc.hint) {
			t.Fatalf("NeedsBudget(%d, hint %v) = true", tc.k, tc.hint != nil)
		}
		ref := Decompose(op, 2)[1]
		want := ref.TakeBudget(tc.k, 0, tc.hint)
		for _, b := range budgets {
			q := Decompose(op, 2)[1]
			got := q.TakeBudget(tc.k, b, tc.hint)
			if !slices.Equal(got, want) || q.remHint != ref.remHint || q.pos != ref.pos {
				t.Errorf("k=%d hint=%v budget %v: took %v (remHint %v), want %v (remHint %v)",
					tc.k, tc.hint != nil, b, got, q.remHint, want, ref.remHint)
			}
		}
	}
	if !NeedsBudget(2, op.Hint) {
		t.Error("NeedsBudget(2, hint) = false")
	}
}
