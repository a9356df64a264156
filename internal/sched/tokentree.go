package sched

import (
	"math/bits"

	"orchestra/internal/machine"
)

// TokenTree simulates the epoch/token protocol of the distributed TAPER
// algorithm (§4.1.1): "the p processors are logically connected as a
// binary tree with p leaves... When a processor begins executing a
// chunk it sends its current epoch value (called a token) to its
// parent, which passes the token to its parent (possibly combining
// messages from both children). When the root receives p tokens from
// the same epoch, it increments the global epoch value and broadcasts a
// message through the tree to all processors."
//
// The tree tracks per-processor progress so the root can identify
// processors falling behind in epochs — the signal that drives chunk
// re-assignment ("if processor a can get two tokens of value i to the
// root before processor b can send one token of value i, then the root
// will re-assign processor b's chunk").
type TokenTree struct {
	p     int
	depth int

	// epoch is the current global epoch; tokens[j] counts tokens
	// processor j has sent in total.
	epoch  int
	tokens []int
	// pending counts tokens received for each epoch at the root.
	pending map[int]int

	// Messages counts hop-level message transmissions (tokens combine
	// at internal nodes, so a token costs at most its leaf depth).
	Messages int
	// Broadcasts counts epoch-increment broadcasts.
	Broadcasts int
}

// NewTokenTree builds the tree for p processors.
func NewTokenTree(p int) *TokenTree {
	if p < 1 {
		p = 1
	}
	return &TokenTree{
		p:       p,
		depth:   treeDepth(p),
		tokens:  make([]int, p),
		pending: map[int]int{},
	}
}

func treeDepth(p int) int {
	if p <= 1 {
		return 0
	}
	return bits.Len(uint(p - 1))
}

// Depth reports the leaf-to-root distance.
func (tt *TokenTree) Depth() int { return tt.depth }

// Epoch reports the current global epoch.
func (tt *TokenTree) Epoch() int { return tt.epoch }

// Token processes processor j's token (sent when it begins a chunk).
// It returns the latency for the token to reach the root and whether
// this token completed an epoch (triggering a broadcast).
func (tt *TokenTree) Token(j int, cfg machine.Config) (latency float64, epochEnd bool) {
	if j < 0 || j >= tt.p {
		return 0, false
	}
	// The processor's token carries its own epoch: how many full
	// epochs of tokens it has already contributed.
	own := tt.tokens[j]
	tt.tokens[j]++
	tt.pending[own]++
	// Tokens combine at internal nodes, so one token amortizes to a
	// single upward message; the latency to the root is still the full
	// leaf depth.
	tt.Messages++
	latency = float64(tt.depth) * (cfg.MsgOverhead + cfg.HopLatency)

	if tt.pending[tt.epoch] >= tt.p {
		delete(tt.pending, tt.epoch)
		tt.epoch++
		tt.Broadcasts++
		tt.Messages += tt.p - 1 // broadcast down the tree
		return latency, true
	}
	return latency, false
}
