package rts

import (
	"fmt"
	"math/bits"
	"slices"

	"orchestra/internal/delirium"
)

// Frontier is the dataflow state machine every engine drives: the one
// statement of when work may start (§4.1 — an operator's tasks become
// executable as its dataflow predecessors complete, incrementally in
// batches over a pipelined edge), with fork-join expansion as its
// degenerate case. It is clock-free, transport-free and
// unsynchronised: the simulator calls it from its event loop, dist
// from its coordinator goroutine, and native serialises calls behind
// one engine mutex.
//
// The Frontier owns the operator table (append-only: the top-level
// graph in topological order, then each expansion's sub-graph in
// topological order, so an index stays valid for the whole run), the
// in-edges, per-operator completion counts and contiguous prefixes, the
// gate, and expansion accounting. Drivers own everything else: queues,
// chunk sizing, clocks, transport, and which in-flight work belongs to
// which worker.
//
// Protocol: NewFrontier, then Start once; afterwards Complete for every
// finished run of tasks. Each call
// appends to a caller-owned Progress the task ranges it newly enabled
// and the operators now ready to expand; for the latter the driver
// calls Expandable.Expand outside any lock and hands the result to
// Splice. Over a run every task is returned in exactly one Enabled
// range. A driver that schedules by polling passes a nil Progress
// everywhere — the calls then only record — skips Start, and reads
// Enabled(op) at dispatch and Due after completions.
type Frontier struct {
	ops         []frontierOp
	index       map[string]int
	pipelined   bool
	batch       func(producer OpSpec) int
	lim         Limits
	pending     []int // expandable operators not yet handed out, ascending
	outstanding int
	spare       []*page // released completion pages, cleared, for reuse
}

// frontierEdge is one dataflow input. batch is the delivery granularity
// of a pipelined edge in producer tasks; 0 marks a completion-gated
// edge.
type frontierEdge struct {
	from, batch int
}

type frontierOp struct {
	name string
	spec OpSpec
	n    int // spec.Op.N
	in   []frontierEdge
	out  []int
	done int
	// prefix is the contiguous completed prefix. Tasks completed beyond
	// it are bits in pages of pageTasks tasks: pages[i] covers tasks
	// [i·pageTasks, (i+1)·pageTasks) and is nil until an out-of-order
	// completion lands in it, fullPage when one completion covered it
	// whole, and released once the prefix passes it. Memory follows
	// what is out of order (at p = 512 that is hundreds of runs, not
	// one per worker), plus one pointer per page: the pages slice is
	// allocated on the first out-of-order completion and dropped when
	// the operator is full. Pipelined progress must be the prefix, not
	// the count: a count of 50 completions may coexist with task 0
	// still queued.
	prefix int
	pages  []*page
	issued int // tasks already returned in an Enabled range
	// Expansion tree: depth is the nesting depth, parent the expandable
	// operator whose sub-graph holds this one (-1 at top level). For an
	// expandable operator subLeft is -1 until Splice, then the number of
	// its sub-graph's tasks not yet complete; the join task is held
	// while it is non-zero.
	depth, parent, subLeft int
}

// Limits bounds the operator table for an engine that packs operator
// and task indices into fixed-width fields; a zero field is unbounded.
// The Frontier refuses a graph or an expansion that would exceed them
// before changing anything, so a driver's table never outgrows what it
// can address.
type Limits struct {
	Ops   int // operators scheduled over the whole run
	Tasks int // tasks of one operator
}

// A completion page covers pageTasks = 1<<pageShift tasks.
const (
	pageShift = 12
	pageTasks = 1 << pageShift
)

// page is one pageTasks-task window of an operator's completion bitset:
// bit i of word w is task w·64+i of the window.
type page [pageTasks / 64]uint64

// fullPage is the shared, read-only page of a window one completion
// covered whole.
var fullPage = func() *page {
	var pg page
	for w := range pg {
		pg[w] = ^uint64(0)
	}
	return &pg
}()

// Range is the run of tasks [Lo, Hi) of operator Op.
type Range struct{ Op, Lo, Hi int }

// Expandable is an operator whose producers have all completed and
// whose sub-graph is therefore due.
type Expandable struct {
	Op    int
	name  string
	depth int
	fn    ExpandFunc
}

// Expand runs the operator's expansion rule. It touches no Frontier
// state, so a concurrent driver calls it outside its lock.
func (x Expandable) Expand() (*Expansion, error) {
	exp, err := x.fn(x.depth)
	if err != nil {
		return nil, fmt.Errorf("rts: expanding %s: %w", x.name, err)
	}
	return exp, nil
}

// Progress collects what Start, Complete and Splice make possible. The
// caller owns it and reuses it across calls (Reset), so the completion
// path allocates nothing in steady state.
type Progress struct {
	Enabled []Range
	Expand  []Expandable
}

// Reset empties p, keeping its capacity.
func (p *Progress) Reset() {
	p.Enabled = p.Enabled[:0]
	p.Expand = p.Expand[:0]
}

// CheckExpandBinding verifies that a node's kind and its binding agree
// on whether the operator expands at run time.
func CheckExpandBinding(nd *delirium.Node, spec OpSpec) error {
	if nd.Kind == delirium.Exp && spec.Expand == nil {
		return fmt.Errorf("rts: operator %s is expandable (kind=exp) but its binding has no Expand rule", nd.Name)
	}
	if nd.Kind != delirium.Exp && spec.Expand != nil {
		return fmt.Errorf("rts: binding provides an Expand rule for non-expandable operator %s (kind=%s)", nd.Name, nd.Kind)
	}
	return nil
}

// NewFrontier builds the frontier of a validated graph. Edges are
// pipelined only when pipelined is set (ModeSplit) and the graph marks
// them so; batch picks a pipelined edge's delivery granularity from its
// producer (nil means 1: every prefix advance is delivered).
func NewFrontier(g *delirium.Graph, bind Binder, pipelined bool, batch func(producer OpSpec) int, lim Limits) (*Frontier, error) {
	f := &Frontier{index: make(map[string]int, len(g.Nodes)), pipelined: pipelined, batch: batch, lim: lim}
	tasks, err := f.add(g, bind, 0, -1)
	if err != nil {
		return nil, err
	}
	f.outstanding = tasks
	return f, nil
}

// add appends g's operators in topological order and wires its edges,
// returning the task count added. Nothing is changed on error.
func (f *Frontier) add(g *delirium.Graph, bind Binder, depth, parent int) (int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	if n := len(f.ops) + len(order); f.lim.Ops > 0 && n > f.lim.Ops {
		return 0, fmt.Errorf("rts: %d operators exceed the engine's limit of %d", n, f.lim.Ops)
	}
	// The table grows once, past its published length: f.ops itself is
	// untouched until every operator has passed its checks.
	base, tasks := len(f.ops), 0
	ops := slices.Grow(f.ops, len(order))
	for _, nd := range order {
		spec := bind(nd.Name)
		if err := CheckExpandBinding(nd, spec); err != nil {
			return 0, err
		}
		if spec.Expand != nil {
			spec = JoinSpec(spec)
		} else if spec.Op.Time == nil || spec.Op.N < 0 {
			spec.Op.N = 0
		}
		if f.lim.Tasks > 0 && spec.Op.N > f.lim.Tasks {
			return 0, fmt.Errorf("rts: operator %s has %d tasks, exceeding the engine's limit of %d", nd.Name, spec.Op.N, f.lim.Tasks)
		}
		ops = append(ops, frontierOp{name: nd.Name, spec: spec, n: spec.Op.N, depth: depth, parent: parent, subLeft: -1})
		tasks += spec.Op.N
	}
	f.ops = ops
	for op := base; op < len(ops); op++ {
		if ops[op].spec.Expand != nil {
			f.pending = append(f.pending, op)
		}
		f.index[ops[op].name] = op
	}
	for _, e := range g.Edges {
		if e.Carried {
			continue
		}
		from, to := f.index[e.From], f.index[e.To]
		ie := frontierEdge{from: from}
		if f.Pipelines(e) {
			ie.batch = 1
			if f.batch != nil {
				ie.batch = f.batch(f.ops[from].spec)
			}
			if ie.batch < 1 {
				ie.batch = 1
			}
		}
		f.ops[to].in = append(f.ops[to].in, ie)
		f.ops[from].out = append(f.ops[from].out, to)
	}
	return tasks, nil
}

// Pipelines reports whether the edge e between scheduled operators is
// gated by its producer's prefix rather than its completion. An edge
// touching an expandable endpoint is always completion-gated: a consumer
// must not start against a sub-graph that does not exist yet, and an
// expandable producer's join task is its only observable progress.
func (f *Frontier) Pipelines(e *delirium.Edge) bool {
	prod, cons := &f.ops[f.index[e.From]], &f.ops[f.index[e.To]]
	return e.Pipelined && !e.Carried && f.pipelined && prod.n > 0 && prod.spec.Expand == nil && cons.spec.Expand == nil
}

// Start opens the run: sources, operators behind zero-task producers
// and expandable operators with nothing to wait for.
func (f *Frontier) Start(pr *Progress) { f.issueFrom(0, pr) }

// issueFrom evaluates the pending expansions and operators [base, Len).
func (f *Frontier) issueFrom(base int, pr *Progress) {
	f.Due(pr)
	for op := base; op < len(f.ops); op++ {
		f.issue(op, pr)
	}
}

// Enabled reports how many of op's tasks may run: the minimum over its
// in-edges of what each producer has made available — everything once
// the producer is full, the share ⌊⌊prefix/batch⌋·batch·n/pn⌋ of its
// delivered batches over a pipelined edge, nothing otherwise. Consumer
// task i reads producer task i·pn/n, which the floor keeps inside the
// completed prefix. An expandable operator's join task is held until
// its sub-graph has drained.
func (f *Frontier) Enabled(op int) int {
	o := &f.ops[op]
	if o.spec.Expand != nil && o.subLeft != 0 {
		return 0
	}
	en := o.n
	for _, ie := range o.in {
		p := &f.ops[ie.from]
		if p.done >= p.n {
			continue
		}
		v := 0
		if ie.batch > 0 {
			v = int(int64(p.prefix/ie.batch*ie.batch) * int64(o.n) / int64(p.n))
		}
		if v < en {
			en = v
		}
	}
	return en
}

// issue appends op's newly enabled tasks, if any. A nil pr marks a
// polling driver, for which nothing is tracked as issued.
func (f *Frontier) issue(op int, pr *Progress) {
	if pr == nil {
		return
	}
	o := &f.ops[op]
	if en := f.Enabled(op); en > o.issued {
		pr.Enabled = append(pr.Enabled, Range{Op: op, Lo: o.issued, Hi: en})
		o.issued = en
	}
}

// Due hands out, in index order, the pending expandable operators
// whose producers are all full; each is handed out once. With a nil pr
// they stay pending, for a polling driver to collect.
func (f *Frontier) Due(pr *Progress) {
	if pr == nil {
		return
	}
	keep := f.pending[:0]
	for _, op := range f.pending {
		o := &f.ops[op]
		full := true
		for _, ie := range o.in {
			if p := &f.ops[ie.from]; p.done < p.n {
				full = false
				break
			}
		}
		if full {
			pr.Expand = append(pr.Expand, Expandable{Op: op, name: o.name, depth: o.depth, fn: o.spec.Expand})
		} else {
			keep = append(keep, op)
		}
	}
	f.pending = keep
}

// markDone folds the completed run [lo, hi) of o into its prefix and
// pages. Runs are disjoint, so a whole-page run lands on a page nothing
// else has touched.
func (f *Frontier) markDone(o *frontierOp, lo, hi int) {
	if lo != o.prefix {
		if o.pages == nil {
			o.pages = make([]*page, (o.n+pageTasks-1)>>pageShift)
		}
		for lo < hi {
			pi := lo >> pageShift
			end := min(hi, (pi+1)<<pageShift)
			if end-lo == pageTasks {
				o.pages[pi] = fullPage
			} else {
				if o.pages[pi] == nil {
					o.pages[pi] = f.newPage()
				}
				o.pages[pi].set(lo&(pageTasks-1), end-pi<<pageShift)
			}
			lo = end
		}
		return
	}
	// In order: the prefix moves to hi and on across whatever has
	// already completed beyond it; the pages it passed are released.
	if o.pages == nil {
		o.prefix = hi
		return
	}
	from := o.prefix >> pageShift
	o.prefix = o.scan(hi)
	if o.prefix >= o.n {
		for pi := from; pi < len(o.pages); pi++ {
			f.release(o, pi)
		}
		o.pages = nil
		return
	}
	for pi := from; pi < o.prefix>>pageShift; pi++ {
		f.release(o, pi)
	}
}

// scan returns the first task at or after at that has not completed,
// reading the pages a word at a time.
func (o *frontierOp) scan(at int) int {
	for at < o.n {
		pg := o.pages[at>>pageShift]
		if pg == nil {
			return at
		}
		for w := at >> 6 & (len(pg) - 1); w < len(pg); w++ {
			if open := ^pg[w] >> (at & 63); open != 0 {
				return at + bits.TrailingZeros64(open)
			}
			at = (at | 63) + 1
		}
	}
	return at
}

// set marks the window's tasks [lo, hi) complete.
func (pg *page) set(lo, hi int) {
	for lo < hi {
		end := min(hi, (lo|63)+1)
		pg[lo>>6] |= ^uint64(0) >> (64 - (end - lo)) << (lo & 63)
		lo = end
	}
}

// newPage hands out a cleared page, reusing a released one if any.
func (f *Frontier) newPage() *page {
	if n := len(f.spare); n > 0 {
		pg := f.spare[n-1]
		f.spare = f.spare[:n-1]
		return pg
	}
	return new(page)
}

// release drops o's page pi, keeping a private page for reuse.
func (f *Frontier) release(o *frontierOp, pi int) {
	if pg := o.pages[pi]; pg != nil && pg != fullPage {
		*pg = page{}
		f.spare = append(f.spare, pg)
	}
	o.pages[pi] = nil
}

// Complete records tasks [lo, hi) of op as done.
func (f *Frontier) Complete(op, lo, hi int, pr *Progress) {
	o := &f.ops[op]
	k := hi - lo
	o.done += k
	f.outstanding -= k
	old := o.prefix
	f.markDone(o, lo, hi)
	full := o.done >= o.n
	if full {
		f.Due(pr)
	}
	if full || o.prefix != old {
		for _, c := range o.out {
			f.issue(c, pr)
		}
	}
	if o.parent >= 0 {
		// The last sub-graph task to finish opens the parent's join,
		// whose own completion then releases the parent's successors.
		par := &f.ops[o.parent]
		par.subLeft -= k
		if par.subLeft == 0 {
			f.issue(o.parent, pr)
		}
	}
}

// Splice installs the expansion of op (nil for the base case: the
// operator degenerates to its join task) and returns the index of the
// first operator it appended; the new operators are [first, Len).
func (f *Frontier) Splice(op int, exp *Expansion, pr *Progress) (first int, err error) {
	first = len(f.ops)
	if exp == nil {
		f.ops[op].subLeft = 0
		f.issue(op, pr)
		return first, nil
	}
	name, depth := f.ops[op].name, f.ops[op].depth
	err = ValidateExpansion(name, depth, exp, func(nm string) bool {
		_, ok := f.index[nm]
		return ok
	})
	var tasks int
	if err == nil {
		tasks, err = f.add(exp.Graph, exp.Bind, depth+1, op)
	}
	if err != nil {
		return first, fmt.Errorf("rts: expanding %s: %w", name, err)
	}
	f.ops[op].subLeft = tasks
	f.outstanding += tasks
	f.issueFrom(first, pr)
	if tasks == 0 {
		f.issue(op, pr)
	}
	return first, nil
}

// Len is the number of operators scheduled so far.
func (f *Frontier) Len() int { return len(f.ops) }

// Index resolves a scheduled operator's name.
func (f *Frontier) Index(name string) int { return f.index[name] }

// Name is op's node name.
func (f *Frontier) Name(op int) string { return f.ops[op].name }

// Spec is op's binding in the form the engines run: an expandable
// operator is its one join task (JoinSpec), and an operator without a
// body has no tasks.
func (f *Frontier) Spec(op int) OpSpec { return f.ops[op].spec }

// N is op's task count.
func (f *Frontier) N(op int) int { return f.ops[op].n }

// Full reports whether every task of op has completed.
func (f *Frontier) Full(op int) bool { return f.ops[op].done >= f.ops[op].n }

// Prefix is op's contiguous completed prefix.
func (f *Frontier) Prefix(op int) int { return f.ops[op].prefix }

// Outstanding is the number of scheduled tasks not yet complete; the
// run is over when it reaches zero.
func (f *Frontier) Outstanding() int { return f.outstanding }
