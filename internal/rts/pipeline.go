package rts

import (
	"orchestra/internal/machine"
	"orchestra/internal/obs"
	"orchestra/internal/sched"
	"orchestra/internal/trace"
)

// ExecutePipelined runs a producer/consumer pair of parallel operations
// in pipelined fashion: consumer task i becomes ready once the batch of
// producer items containing i has been completed and delivered.
// batch is the communication granularity (items per message), normally
// obtained from ChooseGranularity. pProd and pCons processors are
// dedicated to each side.
//
// Compare with ExecuteBarrier, which inserts a full synchronization
// between the operations — the traditional compilation the paper's
// introduction describes.
func ExecutePipelined(cfg machine.Config, prod, cons OpSpec, pProd, pCons, batch int) trace.Result {
	n := prod.Op.N
	if cons.Op.N != n {
		panic("rts: pipelined pair must have matching task counts")
	}
	if batch < 1 {
		batch = 1
	}
	if pProd < 1 || pCons < 1 {
		panic("rts: pipelined sides need at least one processor each")
	}
	sim := machine.NewSim(cfg)
	res := trace.Result{
		Name:       "pipelined",
		Processors: pProd + pCons,
		Busy:       make([]float64, pProd+pCons),
	}
	prodCost, consCost := make([]float64, n), make([]float64, n)

	nBatches := (n + batch - 1) / batch
	batchLeft := make([]int, nBatches) // producer tasks outstanding per batch
	for b := 0; b < nBatches; b++ {
		hi := (b + 1) * batch
		if hi > n {
			hi = n
		}
		batchLeft[b] = hi - b*batch
	}

	// Consumer readiness and idle-consumer wakeup.
	ready := make([]int, 0, n) // ready consumer task indices (FIFO)
	var idleCons []int         // global ids of idle consumer processors
	consStats := sched.NewTaskStats(n)
	finish := make([]float64, pProd+pCons)
	// sendDebt accrues the per-message send overhead a producer
	// processor pays when it completes a batch; it is charged to that
	// processor's next chunk.
	sendDebt := make([]float64, pProd)

	var consLoop func(g int)
	consLoop = func(g int) {
		if len(ready) == 0 {
			idleCons = append(idleCons, g)
			finish[g] = sim.Now()
			return
		}
		// Take up to a small chunk of ready tasks.
		k := clampInt(len(ready)/pCons, len(ready))
		take := ready[:k]
		ready = ready[k:]
		total := cfg.SchedOverhead
		for _, i := range take {
			t := cons.Op.Time(i)
			consCost[i] = t
			consStats.Observe(i, t)
			total += t
		}
		res.Chunks++
		res.Busy[pProd+(g-pProd)] += total
		sim.AfterFn(total, consLoop, g)
	}
	// arrive lands batch b on the consumer side. The item range is
	// recomputed from b so the arrival event carries only the batch
	// index (closure-free AfterFn scheduling).
	arrive := func(b int) {
		items := batch
		if (b+1)*batch > n {
			items = n - b*batch
		}
		for i := b * batch; i < b*batch+items; i++ {
			ready = append(ready, i)
		}
		// Wake idle consumers.
		woken := idleCons
		idleCons = nil
		for _, g := range woken {
			sim.AfterFn(0, consLoop, g)
		}
	}
	deliver := func(b, sender int) {
		// The batch's items travel producer → consumer side; the
		// sending processor pays the software overhead.
		items := batch
		if (b+1)*batch > n {
			items = n - b*batch
		}
		if sender < pProd {
			sendDebt[sender] += cfg.MsgOverhead
		}
		cost := cfg.MsgTime(0, pProd, int64(items)*prod.Op.Bytes+32)
		res.Messages++
		sim.AfterFn(cost, arrive, b)
	}

	// Producer side: tasks are drained in index order from a shared
	// queue so that early batches complete early — the property
	// pipelining depends on. The per-chunk dispatch pays a round trip
	// to the queue owner. Chunks are capped at the batch size so no
	// single chunk spans (and delays) many batches.
	pos := 0
	prodStats := sched.NewTaskStats(n)
	prodPolicy := &sched.Taper{UseCostFunction: true}

	var prodLoop func(j int)
	completeTask := func(i, sender int) {
		b := i / batch
		batchLeft[b]--
		if batchLeft[b] == 0 {
			deliver(b, sender)
		}
	}
	// Each producer has at most one chunk in flight, so the chunk
	// bounds live in per-processor slots rather than a per-event
	// closure.
	pendLo := make([]int, pProd)
	pendK := make([]int, pProd)
	prodDone := func(j int) {
		lo, k := pendLo[j], pendK[j]
		for i := lo; i < lo+k; i++ {
			completeTask(i, j)
		}
		prodLoop(j)
	}
	prodLoop = func(j int) {
		if pos >= n {
			finish[j] = sim.Now()
			return
		}
		remaining := n - pos
		k := prodPolicy.NextChunk(remaining, pProd, prodStats)
		k = clampInt(prodPolicy.ScaleChunk(k, pos, prodStats), remaining)
		// Chunks stay small relative to the producer side's aggregate
		// throughput so deliveries flow smoothly: the delivery lag of a
		// batch is roughly one chunk's execution time.
		if cap := maxInt(1, n/(16*pProd)); k > cap {
			k = cap
		}
		lo := pos
		pos += k
		// Index ranges are pre-distributed in batch-grained slabs, so a
		// dispatch costs only the local scheduling event plus the
		// completion token; one message carries the slab handoff.
		res.Messages++
		total := sendDebt[j] + cfg.SchedOverhead
		sendDebt[j] = 0
		for i := lo; i < lo+k; i++ {
			t := prod.Op.Time(i)
			prodCost[i] = t
			prodStats.Observe(i, t)
			total += t
		}
		res.Chunks++
		res.Busy[j] += total
		pendLo[j], pendK[j] = lo, k
		sim.AfterFn(total, prodDone, j)
	}

	for j := 0; j < pProd; j++ {
		sim.AfterFn(0, prodLoop, j)
	}
	for g := pProd; g < pProd+pCons; g++ {
		sim.AfterFn(0, consLoop, g)
	}
	sim.Run()
	max := 0.0
	for _, f := range finish {
		if f > max {
			max = f
		}
	}
	res.SeqTime = sched.SeqTime(prodCost) + sched.SeqTime(consCost)
	res.Makespan = max + cfg.BroadcastTime(pProd+pCons, 8)
	return res
}

// ExecuteBarrier runs the pair with a full synchronization between
// them: the producer completes on all processors, the entire data set
// transfers, then the consumer runs — the traditional approach the
// paper contrasts with ("impose a processor synchronization barrier
// between sub-computations, optimizing each as a separate entity").
func ExecuteBarrier(cfg machine.Config, prod, cons OpSpec, p int, factory sched.Factory) trace.Result {
	procs := make([]int, p)
	for i := range procs {
		procs[i] = i
	}
	r1 := sched.ExecuteDistributed(cfg, prod.Op, procs, factory, obs.OpObs{})
	r2 := sched.ExecuteDistributed(cfg, cons.Op, procs, factory, obs.OpObs{})
	transfer := float64(prod.Op.Bytes) * float64(prod.Op.N) * cfg.ByteCost / float64(p)
	res := trace.Result{
		Name:       "barrier",
		Processors: p,
		Makespan:   r1.Makespan + transfer + r2.Makespan,
		SeqTime:    r1.SeqTime + r2.SeqTime,
		Chunks:     r1.Chunks + r2.Chunks,
		Steals:     r1.Steals + r2.Steals,
		Messages:   r1.Messages + r2.Messages + p,
		Busy:       make([]float64, p),
	}
	for i := 0; i < p; i++ {
		res.Busy[i] = r1.Busy[i] + r2.Busy[i]
	}
	return res
}
