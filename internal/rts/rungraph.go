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
	// Recorder indices track Frontier indices: the drivers add each
	// operator as the Frontier's table grows.
	var rec *obs.Recorder
	if opts.Sink != nil {
		rec = obs.NewRecorder("sim", "", nil, p)
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
		r, err = executeBarriered(cfg, g, bind, opts, p, rec, fx)
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
// ModeTaper paths: a driver of the Frontier built without pipelining,
// which enables one operator at a time, in topological order. Each runs
// whole on all p processors and then completes, which is the barrier
// after it. A sub-graph's edges are charged just before its join runs,
// the top-level graph's at the end. rec and fx may be nil.
func executeBarriered(cfg machine.Config, g *delirium.Graph, bind Binder, opts RunOpts, p int, rec *obs.Recorder, fx *fault.Exec) (trace.Result, error) {
	f, err := NewFrontier(g, bind, false, cfg, p, Limits{})
	if err != nil {
		return trace.Result{}, err
	}
	agg := trace.Result{Processors: p}
	procs := make([]int, p)
	for i := range procs {
		procs[i] = i
	}
	factory := func() sched.Policy { return &sched.Taper{UseCostFunction: true} }
	charge := func(g2 *delirium.Graph) {
		for _, e := range g2.Edges {
			if e.Carried {
				continue
			}
			bytes := e.Bytes
			if e.PerTask {
				bytes *= int64(f.N(f.Index(e.To)))
			}
			agg.Makespan += float64(bytes) * cfg.ByteCost / float64(p)
			agg.Messages += p
		}
	}
	subs := map[int]*delirium.Graph{} // spliced sub-graphs by expandable operator
	var pr Progress
	f.Start(&pr)
	for named := 0; ; {
		for ; named < f.Len(); named++ {
			rec.AddOp(f.Name(named))
		}
		if len(pr.Expand)+len(pr.Enabled) == 0 {
			break
		}
		// An operator boundary is the natural cancellation point: work
		// already simulated stays charged, the rest is abandoned.
		if opts.canceled() {
			return trace.Result{}, CancelError("rts", opts.Ctx)
		}
		if len(pr.Expand) > 0 {
			x := pr.Expand[0]
			pr.Expand = pr.Expand[1:]
			exp, err := x.Expand()
			if err != nil {
				return trace.Result{}, err
			}
			if _, err := f.Splice(x.Op, exp, &pr); err != nil {
				return trace.Result{}, err
			}
			if exp != nil {
				subs[x.Op] = exp.Graph
			}
			continue
		}
		rg := pr.Enabled[0]
		pr.Enabled = pr.Enabled[1:]
		if sub := subs[rg.Op]; sub != nil {
			charge(sub)
		}
		op := f.Spec(rg.Op).Op
		ob := obs.OpObs{R: rec, Op: rg.Op, Base: agg.Makespan}
		var r trace.Result
		if opts.Mode == ModeStatic {
			r = sched.ExecuteStatic(cfg, op, procs, ob)
		} else if r, err = sched.ExecuteDistributedFault(cfg, op, procs, factory, ob, fx); err != nil {
			// fx persists from operator to operator, so a worker's chunk
			// count, and any crash it triggers, carries across them.
			return trace.Result{}, err
		}
		agg.Makespan += r.Makespan
		agg.SeqTime += r.SeqTime
		agg.Chunks += r.Chunks
		agg.Steals += r.Steals
		agg.Messages += r.Messages
		f.Complete(rg.Op, rg.Lo, rg.Hi, &pr)
	}
	charge(g)
	return agg, nil
}
