package rts

import (
	"fmt"
	"strings"

	"orchestra/internal/delirium"
	"orchestra/internal/fault"
	"orchestra/internal/machine"
	"orchestra/internal/obs"
	"orchestra/internal/sched"
	"orchestra/internal/trace"
)

// Mode selects the execution strategy for a Delirium graph.
type Mode int

// Execution modes: the three configurations of the paper's Figure 6.
const (
	// ModeStatic executes every operator on all processors with a
	// static block decomposition and barriers between operators.
	ModeStatic Mode = iota
	// ModeTaper executes every operator on all processors with the
	// distributed TAPER algorithm and cost functions, with barriers
	// between operators.
	ModeTaper
	// ModeSplit uses the concurrency the split transformation exposed:
	// operators at the same dataflow level run concurrently under the
	// processor-allocation algorithm, and pipelined pairs overlap with
	// a chosen communication granularity.
	ModeSplit
)

func (m Mode) String() string {
	switch m {
	case ModeStatic:
		return "static"
	case ModeTaper:
		return "TAPER"
	case ModeSplit:
		return "TAPER+split"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode resolves a mode name, case-insensitively. It accepts both
// the command-line spellings ("static", "taper", "split") and the
// String() renderings ("TAPER", "TAPER+split"), so ParseMode(m.String())
// round-trips for every valid mode.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "static":
		return ModeStatic, nil
	case "taper":
		return ModeTaper, nil
	case "split", "taper+split":
		return ModeSplit, nil
	}
	return 0, fmt.Errorf("rts: unknown mode %q (valid: static, taper, split)", s)
}

// ParseModes resolves a -mode flag value: a single mode name, "all"
// for every mode, or a comma-separated list. Every CLI mode flag
// (internal/cliflag) parses through this helper.
func ParseModes(s string) ([]Mode, error) {
	if strings.EqualFold(s, "all") {
		return []Mode{ModeStatic, ModeTaper, ModeSplit}, nil
	}
	var modes []Mode
	for _, part := range strings.Split(s, ",") {
		m, err := ParseMode(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("unknown mode %q (valid: static, taper, split, all, or a comma-separated list)", part)
		}
		modes = append(modes, m)
	}
	return modes, nil
}

// Binder resolves a graph node to its executable operation.
type Binder func(name string) OpSpec

// RunGraph executes a Delirium graph on the simulated machine under
// the given options and returns the aggregate result. A zero
// opts.Processors defaults to cfg.Processors. Non-pipelined edges
// charge a data-transfer cost between operators; under ModeSplit, the
// whole graph executes as barrier-free dataflow (executeDAG). With a
// Sink set, the simulated clock provides every event timestamp, so
// exported spans are exact.
func RunGraph(cfg machine.Config, g *delirium.Graph, bind Binder, opts RunOpts) (trace.Result, error) {
	if err := opts.Validate(); err != nil {
		return trace.Result{}, err
	}
	if err := g.Validate(); err != nil {
		return trace.Result{}, err
	}
	p := opts.processors(cfg.Processors)
	if p < 1 {
		p = 1
	}
	order, err := g.TopoOrder()
	if err != nil {
		return trace.Result{}, err
	}
	var rec *obs.Recorder
	if opts.Sink != nil {
		names := make([]string, len(order))
		for i, n := range order {
			names[i] = n.Name
		}
		rec = obs.NewRecorder("sim", "", names, p)
	}
	fx, err := simFaults(&cfg, opts, p)
	if err != nil {
		return trace.Result{}, err
	}
	if opts.canceled() {
		return trace.Result{}, CancelError("rts", opts.Ctx)
	}

	var r trace.Result
	if opts.Mode == ModeSplit {
		// Fully adaptive dataflow execution of the whole graph — no
		// barriers; operators enable as predecessors complete, pipelined
		// edges enable consumers incrementally, and processors migrate
		// to whatever is executable.
		r, err = executeDAG(opts.Ctx, cfg, g, bind, p, rec, fx)
	} else {
		r, err = executeBarriered(cfg, g, bind, opts, p, order, rec, fx)
	}
	if err != nil {
		return trace.Result{}, err
	}
	r.Name = fmt.Sprintf("%s/%s", opts.Mode, g.Name)
	if opts.Sink == nil {
		return r, nil
	}
	return r, opts.Sink.Consume(rec.Finish(r))
}

// executeBarriered is the engine behind RunGraph's ModeStatic and
// ModeTaper paths: one operator at a time on all p processors, in
// topological order, with a barrier after each. rec and fx may be nil.
func executeBarriered(cfg machine.Config, g *delirium.Graph, bind Binder, opts RunOpts, p int, order []*delirium.Node, rec *obs.Recorder, fx *fault.Exec) (trace.Result, error) {
	agg := trace.Result{Processors: p}
	procs := make([]int, p)
	for i := range procs {
		procs[i] = i
	}
	factory := func() sched.Policy { return &sched.Taper{UseCostFunction: true} }

	runOp := func(op sched.Op, oi int) error {
		ob := obs.OpObs{R: rec, Op: oi, Base: agg.Makespan}
		var r trace.Result
		if opts.Mode == ModeStatic {
			r = sched.ExecuteStatic(cfg, op, procs, ob)
		} else {
			// fx persists across the per-operator loop, so a worker's
			// chunk count — and any crash it triggers — carries from one
			// operator to the next.
			var err error
			if r, err = sched.ExecuteDistributedFault(cfg, op, procs, factory, ob, fx); err != nil {
				return err
			}
		}
		agg.Makespan += r.Makespan
		agg.SeqTime += r.SeqTime
		agg.Chunks += r.Chunks
		agg.Steals += r.Steals
		agg.Messages += r.Messages
		return nil
	}
	// taken tracks every operator name scheduled so far; expansions must
	// not redeclare names (same contract as the dataflow engines).
	taken := map[string]bool{}
	for _, n := range g.Nodes {
		taken[n.Name] = true
	}
	topIdx := map[string]int{}
	for i, n := range order {
		topIdx[n.Name] = i
	}
	// execBarriered runs one (sub-)graph's operators in topological
	// order with barriers between them. An expandable operator runs its
	// materialized sub-graph to completion before its own join task —
	// the barriered modes have no overlap to exploit, so nesting is
	// plain recursion — then charges the (sub-)graph's edge costs.
	var execBarriered func(g2 *delirium.Graph, bind2 Binder, depth int, idxOf func(string) int) error
	execBarriered = func(g2 *delirium.Graph, bind2 Binder, depth int, idxOf func(string) int) error {
		order2, err := g2.TopoOrder()
		if err != nil {
			return err
		}
		subIdx := func(nm string) int {
			if rec != nil {
				return rec.AddOp(nm)
			}
			return 0
		}
		for _, n := range order2 {
			// The barriered modes execute one operator at a time, so an
			// operator boundary is the natural cancellation point: work
			// already simulated stays charged, the rest is abandoned.
			if opts.canceled() {
				return CancelError("rts", opts.Ctx)
			}
			spec := bind2(n.Name)
			if err := CheckExpandBinding(n, spec); err != nil {
				return err
			}
			oi := idxOf(n.Name)
			if spec.Expand != nil {
				exp, err := spec.Expand(depth)
				if err != nil {
					return fmt.Errorf("rts: expanding %s: %w", n.Name, err)
				}
				if exp != nil {
					if err := ValidateExpansion(n.Name, depth, exp, func(nm string) bool { return taken[nm] }); err != nil {
						return err
					}
					for _, sn := range exp.Graph.Nodes {
						taken[sn.Name] = true
					}
					if err := execBarriered(exp.Graph, exp.Bind, depth+1, subIdx); err != nil {
						return err
					}
				}
				spec = JoinSpec(spec)
			}
			if err := runOp(spec.Op, oi); err != nil {
				return err
			}
		}
		for _, e := range g2.Edges {
			if e.Carried {
				continue
			}
			bytes := e.Bytes
			if e.PerTask {
				cons := bind2(e.To)
				if cons.Expand != nil {
					cons = JoinSpec(cons)
				}
				bytes *= int64(cons.Op.N)
			}
			agg.Makespan += float64(bytes) * cfg.ByteCost / float64(p)
			agg.Messages += p
		}
		return nil
	}
	if err := execBarriered(g, bind, 0, func(nm string) int { return topIdx[nm] }); err != nil {
		return trace.Result{}, err
	}
	return agg, nil
}
