package split

// Split annotations (Palkar & Zaharia, "Split Annotations"): a kernel
// author declares how an existing kernel's data access decomposes over
// its task index space, and the runtime uses the declaration — without
// rewriting the kernel — to pipeline successive operators over
// cache-resident chunk batches instead of materializing every
// intermediate array through main memory.
//
// The declaration is deliberately tiny. A kernel of n tasks owns an
// n-element output; an Annotation states which producer elements task
// i reads (Read, with Halo for stencils) and which of its own elements
// it writes (Write). The native executor combines the producer's Write
// access with the consumer's Read access per dataflow edge: when
// Chainable reports the pair compatible, the worker that completes
// producer chunk i immediately runs the consumer's chunk i while the
// data is still in cache (the cache-chain schedule); otherwise the
// edge keeps the ordinary prefix-gate or barrier semantics. Results
// are bitwise identical either way — the annotation only licenses an
// execution order, it never changes what a task computes.

// Access classifies which elements of an equal-cardinality peer array
// a task touches.
type Access int

const (
	// AccessAll is the conservative default: task i may touch any
	// element, so the whole peer array must be settled first.
	AccessAll Access = iota
	// AccessElement: task i touches exactly element i.
	AccessElement
	// AccessStencil: task i touches elements [i-Halo, i+Halo], clamped
	// to the array bounds.
	AccessStencil
)

func (a Access) String() string {
	switch a {
	case AccessAll:
		return "all"
	case AccessElement:
		return "element"
	case AccessStencil:
		return "stencil"
	}
	return "?"
}

// Annotation declares a kernel's split behaviour: how task i reads its
// predecessors' arrays and writes its own. The zero value (AccessAll
// reads and writes) is the conservative "don't chain me" annotation.
type Annotation struct {
	// Read is the access pattern against each predecessor array the
	// kernel consumes through a dataflow edge.
	Read Access
	// Halo widens a stencil read: task i reads [i-Halo, i+Halo],
	// clamped. Meaningful only when Read is AccessStencil.
	Halo int
	// Write is the access pattern of the kernel's own output array.
	Write Access
}

// Pointwise annotates a map-style kernel: task i reads element i of
// each predecessor and writes element i of its own output.
func Pointwise() *Annotation {
	return &Annotation{Read: AccessElement, Write: AccessElement}
}

// Stencil annotates a halo kernel: task i reads [i-halo, i+halo]
// (clamped) of each predecessor and writes element i of its output.
// A negative halo is treated as zero (= Pointwise).
func Stencil(halo int) *Annotation {
	if halo < 0 {
		halo = 0
	}
	return &Annotation{Read: AccessStencil, Halo: halo, Write: AccessElement}
}

// Reduction annotates a fold-style kernel that accumulates per-task
// partials: task i reads element i of each predecessor but its output
// is an aggregate (AccessAll) — so it chains as a consumer, while any
// kernel consuming it must wait for full completion.
func Reduction() *Annotation {
	return &Annotation{Read: AccessElement, Write: AccessAll}
}

// ChainHalo resolves the halo a chain edge between prod and cons must
// cover: the consumer's stencil width, zero for element reads.
func ChainHalo(cons *Annotation) int {
	if cons != nil && cons.Read == AccessStencil {
		return cons.Halo
	}
	return 0
}

// Chainable reports whether a producer→consumer edge may be scheduled
// as a cache chain: the producer must write pointwise (element i is
// final once task i completes) and the consumer must read a bounded
// neighbourhood (element or stencil). An AccessAll on either side
// keeps the edge on the ordinary gate/barrier path.
func Chainable(prod, cons *Annotation) bool {
	if prod == nil || cons == nil {
		return false
	}
	if prod.Write != AccessElement {
		return false
	}
	return cons.Read == AccessElement || cons.Read == AccessStencil
}
