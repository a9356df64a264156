package native

import (
	"time"

	"orchestra/internal/delirium"
	"orchestra/internal/split"
)

// Cache-chain scheduling (ROADMAP open item 2; Palkar & Zaharia's
// split annotations). The prefix gate from PR 3 already lets a
// pipelined consumer start before its producer finishes, but every
// intermediate array still round-trips through main memory: the
// producer streams its whole output to DRAM, and the consumer streams
// it back in. On memory-bound operator chains that doubles (or worse)
// the DRAM traffic per stage. Chaining removes the round trip for
// edges whose kernels declare compatible split annotations — producer
// writes pointwise, consumer reads a bounded neighbourhood — or that
// the compiler proved exactly pointwise (delirium.Edge.Chain):
//
//   - the consumer's task space is divided into fixed cache-sized
//     blocks (chainBlockSize: ~64 KB of producer output per block);
//   - each producer out-edge tracks, per consumer block, how many
//     producer tasks of the block's read span [b·S−halo, (b+1)·S+halo)
//     are still incomplete (coverLeft, guarded by the engine's mu,
//     which complete already holds);
//   - when a producer chunk completes the last covering task of a
//     block, and every other in-edge of the consumer has delivered
//     that block too (chainState.left, under the same lock), the block
//     is enabled exactly once — onto the completing worker's own chain
//     queue;
//   - the worker drains its queue depth-first (LIFO) immediately
//     after the enabling chunk, so A[b] → B[b] → C[b] run
//     back-to-back on one core while block b is still in L2.
//
// Fallback keeps results bitwise identical: blocks past the depth
// limit spill to the worker's deque (stealable, ordinary runSegment
// path), a worker that crashes mid-chain, or leaves for another job,
// leaves its enabled blocks on its own deque for the others to steal,
// and ChainOff (or a missing/incompatible annotation) leaves the edge
// on the prefix-gate path untouched. A chained block runs the same
// task bodies over the same arrays in a schedule the kernel contract
// already allows, so every schedule — chained, spilled, stolen,
// re-issued — produces the same bits.

const (
	// chainTargetBytes sizes a chain block: enough producer output to
	// amortize the per-block bookkeeping, small enough that the block
	// plus its consumer output sit comfortably in a per-core L2.
	chainTargetBytes = 64 << 10
	// minChainBlock keeps blocks from degenerating into per-task
	// bookkeeping on byte-heavy kernels.
	minChainBlock = 64
	// maxChainBlock bounds the coverage arrays on byte-light kernels.
	maxChainBlock = 1 << 16
	// maxChainDepth bounds how deep one worker follows a chain before
	// spilling to the deques: long chains stay depth-first up to this
	// many stages, degenerate graphs cannot recurse the queue
	// unboundedly.
	maxChainDepth = 16
)

// chainState is a chain-managed consumer's issue ledger. Blocks are
// [b·block, (b+1)·block) ∩ [0, n); left[b] counts in-edges (chained
// and barrier alike) that have not yet delivered block b. The
// decrement that takes left[b] to zero enables the block exactly once.
// Guarded by the engine's mu.
type chainState struct {
	block   int
	nblocks int
	left    []int32
}

// chainEdge is a producer's delivery obligation toward one
// chain-managed consumer. halo widens each consumer block's read span
// on both sides; coverLeft[b] counts the producer tasks of block b's
// span still incomplete. barrier marks a non-chain in-edge: the
// producer's full completion delivers every block at once.
type chainEdge struct {
	to        int
	halo      int
	coverLeft []int32
	barrier   bool
}

// chainItem is one enabled consumer block on a worker's chain queue.
type chainItem struct {
	seg   segment
	depth int32
}

// chainBlockSize picks the consumer block size S in tasks for an
// n-task operator whose tasks touch roughly `bytes` bytes each.
func chainBlockSize(n int, bytes int64) int {
	if bytes < 1 {
		bytes = 8
	}
	b := int(chainTargetBytes / bytes)
	if b < minChainBlock {
		b = minChainBlock
	}
	if b > maxChainBlock {
		b = maxChainBlock
	}
	if b > n {
		b = n
	}
	return b
}

// setupChains converts eligible edges to chain edges and installs the
// consumers' issue ledgers. Runs single-threaded during newEngine,
// before workers exist and before the Frontier starts. Eligibility per
// edge: equal non-zero task counts and either the compiler's Chain
// attribute or compatible kernel annotations (split.Chainable). A
// consumer is chain-managed only if at least one in-edge is eligible
// and no in-edge must stay on the gate: a pipelined one (a consumer
// cannot be half gate-, half chain-issued), or one from a zero-task
// producer, which fires in the Frontier and never completes a chunk
// here. Its remaining non-eligible in-edges become barrier edges that
// deliver every block at the producer's full completion.
func (e *engine) setupChains(g *delirium.Graph) {
	type edge struct {
		from, to int
		halo     int
		eligible bool
		gated    bool // must stay on the Frontier's gate
	}
	perCons := map[int][]edge{}
	for _, ed := range g.Edges {
		if ed.Carried {
			continue
		}
		ce := edge{from: e.f.Index(ed.From), to: e.f.Index(ed.To)}
		prod, cons := e.op(ce.from), e.op(ce.to)
		ce.gated = e.f.Pipelines(ed) || prod.n == 0
		// Never chain across an expandable endpoint: a chained edge would
		// enqueue blocks against a sub-graph that does not exist yet (the
		// consumer's real work only materializes at expansion time), and
		// an expandable producer's join task is its only observable
		// progress. Such edges stay completion-gated — the same barrier
		// conversion mixed consumers get below.
		expandable := e.f.Spec(ce.from).Expand != nil || e.f.Spec(ce.to).Expand != nil
		if !expandable && prod.n == cons.n && prod.n > 0 {
			if split.Chainable(prod.split, cons.split) {
				ce.eligible, ce.halo = true, split.ChainHalo(cons.split)
			} else if ed.Chain {
				// The compiler's proof is exact-index (halo 0).
				ce.eligible = true
			}
		}
		perCons[ce.to] = append(perCons[ce.to], ce)
	}
	for ci, edges := range perCons {
		chained, ok := 0, true
		for _, ce := range edges {
			if ce.eligible {
				chained++
			} else if ce.gated {
				ok = false // would lose the gate's delivery for this edge
			}
		}
		if chained == 0 || !ok {
			continue
		}
		cons := e.op(ci)
		S := chainBlockSize(cons.n, cons.bytes)
		nb := (cons.n + S - 1) / S
		cs := &chainState{block: S, nblocks: nb, left: make([]int32, nb)}
		for b := range cs.left {
			cs.left[b] = int32(len(edges))
		}
		cons.chain = cs
		for _, ce := range edges {
			prod := e.op(ce.from)
			if !ce.eligible {
				// Barrier in-edge: full producer completion delivers
				// every block at once.
				prod.chains = append(prod.chains, &chainEdge{to: ci, barrier: true})
				continue
			}
			oe := &chainEdge{to: ci, halo: ce.halo, coverLeft: make([]int32, nb)}
			for b := 0; b < nb; b++ {
				lo, hi := b*S-oe.halo, (b+1)*S+oe.halo
				if lo < 0 {
					lo = 0
				}
				if hi > prod.n {
					hi = prod.n
				}
				oe.coverLeft[b] = int32(hi - lo)
			}
			prod.chains = append(prod.chains, oe)
			// Cache-aware producer chunking: cap the producer's TAPER
			// grain near the consumer block, so one chunk enables about
			// one block and its output is still resident when the block
			// runs.
			if prod.chainOut == 0 || S < prod.chainOut {
				prod.chainOut = S
			}
		}
	}
}

// chainCover is complete's delivery hook for one chain out-edge: the
// producer finished tasks [lo, hi); decrement every consumer block
// whose read span those tasks intersect, and enable blocks this edge
// (and every other in-edge) has fully delivered. Caller holds mu.
func (e *engine) chainCover(w *worker, o *opState, oe *chainEdge, lo, hi int, depth int32) {
	cons := e.op(oe.to)
	cs := cons.chain
	S, h := cs.block, oe.halo
	bLo := 0
	if lo-h > 0 {
		bLo = (lo - h) / S
	}
	bHi := (hi - 1 + h) / S
	if bHi >= cs.nblocks {
		bHi = cs.nblocks - 1
	}
	for b := bLo; b <= bHi; b++ {
		spanLo, spanHi := b*S-h, (b+1)*S+h
		if spanLo < 0 {
			spanLo = 0
		}
		if spanHi > o.n {
			spanHi = o.n
		}
		cutLo, cutHi := lo, hi
		if cutLo < spanLo {
			cutLo = spanLo
		}
		if cutHi > spanHi {
			cutHi = spanHi
		}
		if cutHi <= cutLo {
			continue
		}
		oe.coverLeft[b] -= int32(cutHi - cutLo)
		if oe.coverLeft[b] == 0 {
			e.chainEnable(w, cons, b, depth)
		}
	}
}

// chainBarrier is complete's delivery hook for a barrier edge into a
// chain-managed consumer: the producer fully completed, so every block
// receives this edge's delivery. Caller holds mu.
func (e *engine) chainBarrier(w *worker, oe *chainEdge, depth int32) {
	cons := e.op(oe.to)
	for b := 0; b < cons.chain.nblocks; b++ {
		e.chainEnable(w, cons, b, depth)
	}
}

// chainEnable counts one in-edge delivery of block b; the delivery
// that completes the set enqueues the block on the enabling worker's
// own chain queue. Caller holds mu, so exactly one delivery observes
// zero.
func (e *engine) chainEnable(w *worker, cons *opState, b int, depth int32) {
	cons.chain.left[b]--
	if cons.chain.left[b] != 0 {
		return
	}
	S := cons.chain.block
	lo := b * S
	hi := lo + S
	if hi > cons.n {
		hi = cons.n
	}
	w.chainQ = append(w.chainQ, chainItem{seg: segment{op: cons.idx, lo: lo, hi: hi}, depth: depth + 1})
}

// drainChain runs the worker's enabled blocks depth-first: LIFO pops
// execute the most recently enabled — cache-hottest — block first,
// and a block's complete may push its own consumers, so a chain
// A[b] → B[b] → C[b] runs back-to-back without touching the deques.
// Blocks past the depth limit spill to the ordinary work-stealing
// path; a crash or a departure mid-chain leaves everything still
// queued on the worker's deque, where the others steal it (shed).
func (e *engine) drainChain(w *worker) {
	for len(w.chainQ) > 0 {
		if e.asked() && e.depart(w) {
			// Left for a waiting job: the queue is on this worker's deque
			// for the job's remaining workers.
			return
		}
		it := w.chainQ[len(w.chainQ)-1]
		w.chainQ = w.chainQ[:len(w.chainQ)-1]
		if e.canceled.Load() {
			// The run is abandoned wholesale; enabled blocks are dropped
			// exactly like queued deque segments.
			continue
		}
		if it.depth > maxChainDepth {
			e.spillChain(w, it.seg)
			continue
		}
		if e.fx != nil && !e.faultPoint(w, it.seg) {
			// Crashed: it.seg and the rest of the queue are on this
			// worker's deque for the survivors.
			return
		}
		e.runChained(w, it)
	}
}

// spillChain releases an enabled block to the worker's own deque,
// where thieves can see it: the work-stealing fallback that keeps
// load balance when chains run deep.
func (e *engine) spillChain(w *worker, s segment) {
	e.chainSpills.Add(1)
	if e.rec != nil {
		e.rec.Spill(w.id, s.op, s.lo, s.len(), time.Since(e.start).Seconds())
	}
	e.release(w, s.op, s.lo, s.hi)
}

// runChained executes one enabled block as a single chunk. No TAPER
// consultation: the block size was chosen for cache residency at
// setup, and splitting it would forfeit exactly the locality the
// chain exists for. The chunk itself runs through runChunk, as
// runSegment's do, so chained chunks are indistinguishable downstream
// except for the KindChain marker.
func (e *engine) runChained(w *worker, it chainItem) {
	seg := it.seg
	b := e.runChunk(w, e.op(seg.op), seg.lo, seg.hi, false, it.depth)
	if e.rec != nil {
		e.rec.Chain(w.id, seg.op, seg.lo, seg.len(), int(it.depth), b)
	}
	e.chainHits.Add(1)
}
