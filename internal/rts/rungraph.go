package rts

import (
	"fmt"
	"strings"

	"orchestra/internal/delirium"
	"orchestra/internal/machine"
	"orchestra/internal/obs"
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
// opts.Processors defaults to cfg.Processors. Every mode runs through
// the one driver, executeDAG: under ModeSplit the whole graph executes
// as barrier-free dataflow; under ModeStatic and ModeTaper one operator
// at a time runs on all processors, and the barrier after it charges
// the transfer of the edges it feeds. With a Sink set, the simulated
// clock provides every event timestamp, so exported spans are exact.
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

	r, err := executeDAG(opts.Ctx, cfg, g, bind, p, opts.Mode, rec, fx)
	if err != nil {
		return trace.Result{}, err
	}
	r.Name = fmt.Sprintf("%s/%s", opts.Mode, g.Name)
	if opts.Sink == nil {
		return r, nil
	}
	return r, opts.Sink.Consume(rec.Finish(r))
}

// RunOp runs one operation alone, as a one-operator graph through
// RunGraph: the simulator's single-operation experiments.
func RunOp(cfg machine.Config, spec OpSpec, opts RunOpts) (trace.Result, error) {
	g := delirium.NewGraph(spec.Op.Name)
	if err := g.AddNode(&delirium.Node{Name: "op", Kind: delirium.Par}); err != nil {
		return trace.Result{}, err
	}
	return RunGraph(cfg, g, func(string) OpSpec { return spec }, opts)
}
