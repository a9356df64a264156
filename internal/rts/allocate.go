package rts

import (
	"fmt"

	"orchestra/internal/machine"
	"orchestra/internal/obs"
)

// DefaultMaxCount bounds the allocation iterations; the paper: "in
// practice, using a max_count of four has been sufficient."
const DefaultMaxCount = 4

// DefaultEpsilon is the paper's 5% imbalance tolerance.
const DefaultEpsilon = 0.05

// Allocate implements the paper's iterative processor-allocation
// algorithm (§4.1.2) for two concurrently executing parallel
// operations A and B on p processors:
//
//	p1 = p/2, p2 = p - p1
//	while count < max_count and |eA - eB| > epsilon:
//	    if eA > eB:  p1 = p1 + p2/2, p2 = p - p1
//	    else:        p2 = p2 + p1/2, p1 = p - p2
//
// estA and estB return finishing-time estimates given a processor
// count. The tolerance is relative to the larger estimate. Both sides
// always keep at least one processor.
func Allocate(estA, estB func(p int) float64, p, maxCount int, epsilon float64) (p1, p2 int) {
	if p < 2 {
		return p, 0
	}
	if maxCount <= 0 {
		maxCount = DefaultMaxCount
	}
	if epsilon <= 0 {
		epsilon = DefaultEpsilon
	}
	p1 = p / 2
	p2 = p - p1
	eA, eB := estA(p1), estB(p2)
	best1, best2 := p1, p2
	bestMax := maxF(eA, eB)
	for count := 0; count < maxCount && imbalance(eA, eB) > epsilon; count++ {
		if eA > eB {
			p1 = p1 + p2/2
			if p1 > p-1 {
				p1 = p - 1
			}
			p2 = p - p1
		} else {
			p2 = p2 + p1/2
			if p2 > p-1 {
				p2 = p - 1
			}
			p1 = p - p2
		}
		eA, eB = estA(p1), estB(p2)
		if m := maxF(eA, eB); m < bestMax {
			bestMax = m
			best1, best2 = p1, p2
		}
	}
	// The iteration is a coarse bisection and can overshoot on sharply
	// nonlinear estimates; the allocation used is the best one visited
	// (the algorithm "approximates the ideal processor allocation").
	return best1, best2
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func imbalance(a, b float64) float64 {
	max := a
	if b > max {
		max = b
	}
	if max <= 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / max
}

// AllocateMany divides processors among concurrent operations under
// the default TAPER confidence width; see AllocateManyOmega.
func AllocateMany(cfg machine.Config, specs []OpSpec, p int, rec *obs.Recorder, names ...string) []int {
	return AllocateManyOmega(cfg, specs, p, 0, rec, names...)
}

// AllocateManyOmega divides p processors among k > 0 concurrent
// operations: an initial share proportional to estimated total work,
// refined by pairwise application of the iterative algorithm between
// the currently slowest and fastest operations. omega is the run's
// TAPER confidence-width override (0 = default), threaded into every
// finishing-time estimate so the allocation models the scheduler the
// run will actually use.
//
// A non-nil rec receives one obs.AllocEstimate row per operation per
// iteration — the five finishing-time terms the decision was based on
// — with the final allocation re-emitted as Chosen rows. names, when
// supplied, label the rows; otherwise operations appear as op0, op1, …
func AllocateManyOmega(cfg machine.Config, specs []OpSpec, p int, omega float64, rec *obs.Recorder, names ...string) []int {
	k := len(specs)
	name := func(i int) string {
		if i < len(names) {
			return names[i]
		}
		return fmt.Sprintf("op%d", i)
	}
	if k == 0 {
		return nil
	}
	if k == 1 {
		if rec != nil {
			e := FinishEstimateOmega(cfg, specs[0], p, omega)
			rec.Alloc(obs.AllocEstimate{Op: name(0), Procs: p, Setup: e.Setup,
				Compute: e.Compute, Lag: e.Lag, Comm: e.Comm, Sched: e.Sched, Chosen: true})
		}
		return []int{p}
	}
	// Initial proportional shares.
	total := 0.0
	work := make([]float64, k)
	for i, s := range specs {
		work[i] = float64(s.Op.N) * s.Mu
		total += work[i]
	}
	alloc := make([]int, k)
	assigned := 0
	for i := range specs {
		share := 1
		if total > 0 {
			share = int(work[i] / total * float64(p))
		}
		if share < 1 {
			share = 1
		}
		alloc[i] = share
		assigned += share
	}
	// Fix rounding drift on the largest share.
	largest := 0
	for i := range alloc {
		if alloc[i] > alloc[largest] {
			largest = i
		}
	}
	alloc[largest] += p - assigned
	if alloc[largest] < 1 {
		alloc[largest] = 1
	}

	emitRound := 0
	emit := func(chosen bool) {
		if rec == nil {
			return
		}
		for i := range specs {
			e := FinishEstimateOmega(cfg, specs[i], alloc[i], omega)
			rec.Alloc(obs.AllocEstimate{Op: name(i), Round: emitRound, Procs: alloc[i],
				Setup: e.Setup, Compute: e.Compute, Lag: e.Lag, Comm: e.Comm,
				Sched: e.Sched, Chosen: chosen})
		}
		emitRound++
	}
	emit(false) // initial proportional shares

	// Pairwise refinement between extremes.
	for round := 0; round < DefaultMaxCount; round++ {
		est := make([]float64, k)
		for i := range specs {
			est[i] = FinishEstimateOmega(cfg, specs[i], alloc[i], omega).Total()
		}
		slow, fast := 0, 0
		for i := 1; i < k; i++ {
			if est[i] > est[slow] {
				slow = i
			}
			if est[i] < est[fast] {
				fast = i
			}
		}
		if slow == fast || imbalance(est[slow], est[fast]) <= DefaultEpsilon {
			break
		}
		pool := alloc[slow] + alloc[fast]
		p1, p2 := Allocate(
			func(q int) float64 { return FinishEstimateOmega(cfg, specs[slow], q, omega).Total() },
			func(q int) float64 { return FinishEstimateOmega(cfg, specs[fast], q, omega).Total() },
			pool, DefaultMaxCount, DefaultEpsilon)
		alloc[slow], alloc[fast] = p1, p2
		emit(false)
	}
	emit(true)
	return alloc
}

// ReallocateOnLossOmega re-runs the allocation algorithm over the
// surviving processor set after a worker loss, so finishing-time
// estimates track the machine that is actually left instead of
// silently lying (§5's re-estimation under changing conditions,
// applied to failures). The specs should carry the statistics measured
// so far; the fresh AllocEstimate rows land next to a KindRealloc
// event emitted by the caller.
func ReallocateOnLossOmega(cfg machine.Config, specs []OpSpec, live int, omega float64, rec *obs.Recorder, names ...string) []int {
	if live < 1 {
		live = 1
	}
	return AllocateManyOmega(cfg, specs, live, omega, rec, names...)
}
