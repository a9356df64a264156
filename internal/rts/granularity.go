package rts

import (
	"math"

	"orchestra/internal/machine"
)

// PipeBatchCost models the cost of streaming n items of itemBytes each
// from a producer to a consumer in batches of m items: the sender pays
// one message per batch, and the consumer's start is delayed by one
// full batch (the pipeline fill):
//
//	cost(m) = (n/m)·overhead + m·itemBytes·byteCost + n·itemBytes·byteCost
//
// The last term (total transfer) is independent of m and included so
// the value is a complete transfer-time estimate.
func PipeBatchCost(cfg machine.Config, n int, itemBytes int64, m int) float64 {
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	batches := math.Ceil(float64(n) / float64(m))
	fill := float64(m) * float64(itemBytes) * cfg.ByteCost
	return batches*(cfg.MsgOverhead+cfg.HopLatency) + fill +
		float64(n)*float64(itemBytes)*cfg.ByteCost
}

// ChoosePairGranularity combines the communication-cost model
// with finishing-time estimates, as §4.1 describes ("combined
// finishing time estimates with runtime communication cost estimates
// to choose communication granularity"): the batch chosen by the cost
// model is additionally capped so the producer delivers many batches
// within its estimated finishing time — otherwise the consumer idles
// through the fill and the pipeline degenerates toward a barrier. It
// is the one batch rule: the Frontier calls it for every pipelined
// edge, with the engine's cost model.
func ChoosePairGranularity(cfg machine.Config, prod OpSpec, pProd int, itemBytes int64) int {
	n := prod.Op.N
	m := ChooseGranularity(cfg, n, itemBytes)
	// The pipeline fill — the time to produce the first batch — must be
	// a small fraction of the producer's estimated finishing time, so
	// the consumer ramps up early: m·μ/p ≤ finish/16. The compute term
	// of finish is n·μ/p, which contributes exactly n/16 tasks; only the
	// other terms are converted through μ, so n·μ/p·p never rounds
	// below n. Without a task time the limit is n/16. The cap is at
	// least one task, so the edge stays pipelined.
	fill := float64(n) / 16
	if prod.Mu > 0 && pProd > 0 {
		e := FinishEstimate(cfg, prod, pProd)
		fill += (e.Total() - e.Compute) * float64(pProd) / (16 * prod.Mu)
	}
	if fill < float64(m) {
		m = max(int(fill), 1)
	}
	return m
}

// ChooseGranularity picks the communication granularity (batch size)
// for a pipelined producer/consumer pair (§4.1: the runtime "combines
// finishing time estimates with runtime communication cost estimates
// to choose communication granularity for pairs of pipelined parallel
// operations"). Minimizing cost(m) gives
//
//	m* = sqrt(n·overhead / (itemBytes·byteCost)),
//
// clamped to [1, n]: small batches when per-item data is large (start
// the consumer early), large batches when message overhead dominates.
func ChooseGranularity(cfg machine.Config, n int, itemBytes int64) int {
	if n <= 1 {
		return 1
	}
	unit := float64(itemBytes) * cfg.ByteCost
	if unit <= 0 {
		return n
	}
	m := int(math.Sqrt(float64(n) * (cfg.MsgOverhead + cfg.HopLatency) / unit))
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	return m
}
