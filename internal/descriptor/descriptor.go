// Package descriptor implements symbolic data descriptors (§3.2): the
// paper's summarization of memory access behaviour. A descriptor is two
// sets of triples <G> B[P] — one for data locations read, one for data
// locations written. G is an optional symbolic guard; B the memory
// block; P an optional access pattern with a range expression per
// dimension and optional masks such as  q[1..10/(miss[*] != 1), 1..10].
//
// The package provides the interference relation between descriptors
// (output-, flow-, and anti-dependence), the promotion of an iteration
// descriptor to a whole-loop descriptor (guards over the induction
// variable become masks across the promoted dimension), and the
// iteration-shift substitution that the pipelining variant of split
// uses. All tests are conservative: descriptors interfere unless
// disjointness can be proven.
package descriptor

import (
	"fmt"
	"strings"

	"orchestra/internal/symbolic"
)

// Mask restricts the elements of one dimension with a predicate over
// the current element, written with symbolic.Star, e.g.
// mask[*] != 0. An access to index x is masked out when Pred with
// Star := x is false.
type Mask struct {
	Pred symbolic.Pred
}

// Instantiate returns the mask predicate with the placeholder replaced
// by a concrete index expression.
func (m Mask) Instantiate(x symbolic.Expr) symbolic.Pred {
	return m.Pred.Subst(symbolic.Star, x)
}

// Equal reports structural equality.
func (m Mask) Equal(o Mask) bool { return m.Pred.Equal(o.Pred) }

func (m Mask) String() string { return m.Pred.String() }

// Dim is the access pattern of one array dimension: a union of ranges,
// optionally restricted by a mask.
type Dim struct {
	Ranges []symbolic.Range
	Mask   *Mask
}

// PointDim builds a dimension accessed at a single index.
func PointDim(e symbolic.Expr) Dim {
	return Dim{Ranges: []symbolic.Range{symbolic.Point(e)}}
}

// RangeDim builds a dimension accessed over one range.
func RangeDim(r symbolic.Range) Dim {
	return Dim{Ranges: []symbolic.Range{r}}
}

// IsPoint reports whether the dimension accesses a single expression
// index (one degenerate range, no mask).
func (d Dim) IsPoint() (symbolic.Expr, bool) {
	if len(d.Ranges) == 1 && d.Mask == nil {
		return d.Ranges[0].IsPoint()
	}
	return symbolic.Expr{}, false
}

// Uses reports whether name n appears in any range of the dimension.
func (d Dim) Uses(n symbolic.Name) bool {
	for _, r := range d.Ranges {
		if r.Uses(n) {
			return true
		}
	}
	if d.Mask != nil && d.Mask.Pred.Uses(n) {
		return true
	}
	return false
}

// Subst replaces name n with expression v throughout the dimension.
func (d Dim) Subst(n symbolic.Name, v symbolic.Expr) Dim {
	out := Dim{Ranges: make([]symbolic.Range, len(d.Ranges))}
	for i, r := range d.Ranges {
		out.Ranges[i] = r.Subst(n, v)
	}
	if d.Mask != nil {
		m := Mask{Pred: d.Mask.Pred.Subst(n, v)}
		out.Mask = &m
	}
	return out
}

// Equal reports structural equality.
func (d Dim) Equal(o Dim) bool {
	if len(d.Ranges) != len(o.Ranges) || (d.Mask == nil) != (o.Mask == nil) {
		return false
	}
	for i := range d.Ranges {
		if !d.Ranges[i].Equal(o.Ranges[i]) {
			return false
		}
	}
	return d.Mask == nil || d.Mask.Equal(*o.Mask)
}

func (d Dim) String() string {
	parts := make([]string, len(d.Ranges))
	for i, r := range d.Ranges {
		parts[i] = r.String()
	}
	s := strings.Join(parts, " and ")
	if d.Mask != nil {
		s = fmt.Sprintf("%s/(%s)", s, d.Mask)
	}
	return s
}

// Triple is one access summary <G> B[P].
type Triple struct {
	// Guard is a conjunction of predicates; the access is known not to
	// occur when the guard is false. nil means unconditional.
	Guard symbolic.Conj
	// Block is the accessed memory block (array or scalar name).
	Block symbolic.Name
	// Dims is the access pattern, one entry per dimension; nil means
	// the whole block is accessed.
	Dims []Dim
}

// ScalarTriple summarizes an access to an entire scalar or array block.
func ScalarTriple(block symbolic.Name) Triple { return Triple{Block: block} }

// Whole reports whether the triple covers its entire block.
func (t Triple) Whole() bool { return len(t.Dims) == 0 }

// WithGuard returns the triple with the guard extended by g.
func (t Triple) WithGuard(g symbolic.Conj) Triple {
	t.Guard = t.Guard.Merge(g)
	return t
}

// Subst replaces name n with expression v throughout the triple. A
// triple that does not use n is returned as it is.
func (t Triple) Subst(n symbolic.Name, v symbolic.Expr) Triple {
	if !t.Uses(n) {
		return t
	}
	out := Triple{Block: t.Block, Guard: t.Guard.Subst(n, v)}
	for _, d := range t.Dims {
		out.Dims = append(out.Dims, d.Subst(n, v))
	}
	return out
}

// Uses reports whether name n appears in the triple's pattern or guard.
func (t Triple) Uses(n symbolic.Name) bool {
	for _, d := range t.Dims {
		if d.Uses(n) {
			return true
		}
	}
	return t.Guard.Uses(n)
}

// Equal reports structural equality: the same block, guard and access
// pattern, compared field by field without rendering either side.
func (t Triple) Equal(o Triple) bool {
	if t.Block != o.Block || len(t.Dims) != len(o.Dims) || !t.Guard.Equal(o.Guard) {
		return false
	}
	for i := range t.Dims {
		if !t.Dims[i].Equal(o.Dims[i]) {
			return false
		}
	}
	return true
}

func (t Triple) String() string {
	var b strings.Builder
	if len(t.Guard) > 0 {
		fmt.Fprintf(&b, "<%s> ", t.Guard)
	}
	b.WriteString(string(t.Block))
	if len(t.Dims) > 0 {
		b.WriteByte('[')
		for i, d := range t.Dims {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(d.String())
		}
		b.WriteByte(']')
	}
	return b.String()
}

// Descriptor summarizes the memory behaviour of a computation.
type Descriptor struct {
	Reads  []Triple
	Writes []Triple
}

// AddRead appends a read triple.
func (d *Descriptor) AddRead(t Triple) { d.Reads = append(d.Reads, t) }

// AddWrite appends a write triple.
func (d *Descriptor) AddWrite(t Triple) { d.Writes = append(d.Writes, t) }

// Merge folds another descriptor's triples into d.
func (d *Descriptor) Merge(o Descriptor) {
	d.Reads = append(d.Reads, o.Reads...)
	d.Writes = append(d.Writes, o.Writes...)
}

// Empty reports whether the descriptor has no accesses.
func (d Descriptor) Empty() bool { return len(d.Reads) == 0 && len(d.Writes) == 0 }

// Subst replaces name n with expression v in every triple.
func (d Descriptor) Subst(n symbolic.Name, v symbolic.Expr) Descriptor {
	out := Descriptor{}
	for _, t := range d.Reads {
		out.Reads = append(out.Reads, t.Subst(n, v))
	}
	for _, t := range d.Writes {
		out.Writes = append(out.Writes, t.Subst(n, v))
	}
	return out
}

// Blocks returns the set of block names the descriptor touches.
func (d Descriptor) Blocks() map[symbolic.Name]bool {
	out := map[symbolic.Name]bool{}
	for _, t := range d.Reads {
		out[t.Block] = true
	}
	for _, t := range d.Writes {
		out[t.Block] = true
	}
	return out
}

func (d Descriptor) String() string {
	var b strings.Builder
	b.WriteString("write:")
	for _, t := range d.Writes {
		b.WriteString(" " + t.String())
	}
	b.WriteString("\nread:")
	for _, t := range d.Reads {
		b.WriteString(" " + t.String())
	}
	return b.String()
}
