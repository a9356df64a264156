package search

import (
	"fmt"
	"sort"
	"strconv"

	"orchestra/internal/delirium"
	"orchestra/internal/machine"
	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
)

// Model ranks candidate graphs with the paper's finishing-time
// estimate (equation 1), calibrated by a profiling run: per-operator
// μ/σ come from the measured trace, the per-chunk scheduling overhead
// from the run's measured (p·makespan − busy)/chunks, and the TAPER
// confidence width ω from the run's actual override.
type Model struct {
	Prof *Profile
	// P is the worker count the estimate targets (defaults to the
	// profiling run's).
	P int
	// Omega is the TAPER override of the run being planned (defaults
	// to the profile's).
	Omega float64
}

// Cfg returns the calibrated machine model: the default simulated
// machine for p processors with the scheduling overhead replaced by
// the measured per-chunk cost and the communication terms scaled to
// the same time unit. A wall-clock profile (unit "s") zeroes the
// simulated per-byte network cost — the native backend moves no
// modelled messages — while per-chunk and per-batch costs keep their
// measured values.
func (m *Model) Cfg() machine.Config {
	cfg := machine.DefaultConfig(m.procs())
	if m.Prof.ChunkOverhead > 0 {
		cfg.SchedOverhead = m.Prof.ChunkOverhead
		// A pipelined delivery batch costs about one scheduling event:
		// natively a release, in the simulator a message.
		cfg.MsgOverhead = m.Prof.ChunkOverhead
		cfg.HopLatency = 0
	}
	if m.Prof.Unit == "s" {
		cfg.ByteCost = 0
	}
	return cfg
}

func (m *Model) procs() int {
	if m.P > 0 {
		return m.P
	}
	if m.Prof.Processors > 0 {
		return m.Prof.Processors
	}
	return 1
}

func (m *Model) omega() float64 {
	if m.Omega > 0 {
		return m.Omega
	}
	return m.Prof.Omega
}

// spec builds the calibrated OpSpec for an operator of a candidate
// graph from the profile's measured statistics.
func (m *Model) spec(name string) (rts.OpSpec, error) {
	op := m.Prof.Op(name)
	if op == nil || op.Tasks == 0 {
		return rts.OpSpec{}, fmt.Errorf("search: operator %q not covered by the profile", name)
	}
	return rts.OpSpec{
		Op: sched.Op{Name: name, N: op.Tasks},
		Mu: op.Mu, Sigma: op.Sigma,
	}, nil
}

// declaredZeroTasks reports whether a graph node's tasks annotation
// literally declares zero tasks. Symbolic annotations ("n") stay
// opaque and fall through to profile coverage.
func declaredZeroTasks(nd *delirium.Node) bool {
	n, err := strconv.Atoi(nd.Tasks)
	return err == nil && n == 0
}

// nodeSpec resolves a candidate graph node. An operator the graph
// declares with zero tasks executes nothing and therefore never emits
// a chunk event — it is structurally absent from every profile, not
// uncovered, so it estimates as a zero spec instead of failing the
// candidate (which would fail the whole search, since every candidate
// shares the node set).
func (m *Model) nodeSpec(nd *delirium.Node) (rts.OpSpec, error) {
	if declaredZeroTasks(nd) {
		return rts.OpSpec{Op: sched.Op{Name: nd.Name, N: 0}}, nil
	}
	return m.spec(nd.Name)
}

// Estimate predicts the candidate graph's makespan in profile time
// units: an earliest-start/finish pass over the DAG where each level
// shares the processors by the paper's iterative allocation, pipelined
// edges release consumers after one delivery batch instead of at
// producer completion, and the whole estimate is floored by the
// work-conservation bound total-work/p plus the measured per-chunk
// overhead. The floor is what makes a transformation with nothing to
// overlap (one worker, inflated part work) rank below keep-sequential.
func (m *Model) Estimate(g *delirium.Graph) (float64, error) {
	p := m.procs()
	omega := m.omega()
	cfg := m.Cfg()

	levels, err := g.Levels()
	if err != nil {
		return 0, err
	}
	specs := map[string]rts.OpSpec{}
	alloc := map[string]int{}
	for _, lvl := range levels {
		lspecs := make([]rts.OpSpec, 0, len(lvl))
		names := make([]string, 0, len(lvl))
		for _, nd := range lvl {
			s, err := m.nodeSpec(nd)
			if err != nil {
				return 0, err
			}
			specs[nd.Name] = s
			lspecs = append(lspecs, s)
			names = append(names, nd.Name)
		}
		shares := rts.AllocateManyOmega(cfg, lspecs, p, omega, nil, names...)
		for i, nd := range lvl {
			alloc[nd.Name] = shares[i]
		}
	}

	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	finish := map[string]float64{}
	start := map[string]float64{}
	totalWork, totalChunks := 0.0, 0
	for _, nd := range order {
		s := specs[nd.Name]
		pv := alloc[nd.Name]
		if pv < 1 {
			pv = 1
		}
		st := 0.0
		for _, e := range g.InEdges(nd.Name) {
			if e.Carried {
				continue
			}
			var ready float64
			if e.Pipelined {
				// The consumer ramps up after the producer's first
				// delivery batch (the pipeline fill), not after the
				// producer completes.
				prod := specs[e.From]
				pp := alloc[e.From]
				if pp < 1 {
					pp = 1
				}
				batch := rts.ChoosePairGranularityOmega(cfg, prod, pp, prod.Op.Bytes, omega)
				ready = start[e.From] + float64(batch)*prod.Mu/float64(pp) + cfg.MsgOverhead
			} else {
				ready = finish[e.From]
			}
			if ready > st {
				st = ready
			}
		}
		est := rts.FinishEstimateOmega(cfg, s, pv, omega)
		start[nd.Name] = st
		finish[nd.Name] = st + est.Total()
		totalWork += float64(s.Op.N) * s.Mu
		totalChunks += rts.PredictChunksOmega(s.Op.N, pv, cvOf(s), omega)
	}

	span := 0.0
	for _, f := range finish {
		if f > span {
			span = f
		}
	}
	// Work conservation plus per-chunk overhead: no schedule beats it,
	// and candidates that inflate total work or chunk count pay here
	// even when their critical path looks short.
	floor := totalWork/float64(p) + float64(totalChunks)*cfg.SchedOverhead/float64(p)
	if floor > span {
		span = floor
	}
	return span, nil
}

func cvOf(s rts.OpSpec) float64 {
	if s.Mu <= 0 {
		return 0
	}
	return s.Sigma / s.Mu
}

// DryRun validates a candidate on the discrete-event simulator under
// the calibrated machine model: per-task times are reconstructed as a
// seeded log-normal stream with the operator's measured μ/σ, and the
// graph runs in split mode with the planned worker count and ω. The
// returned makespan is in profile time units.
func (m *Model) DryRun(g *delirium.Graph) (float64, error) {
	cfg := m.Cfg()
	// Zero-task operators are structurally absent from the profile; the
	// dry run gives them an empty op rather than failing the bind.
	zeroTask := map[string]bool{}
	for _, nd := range g.Nodes {
		if declaredZeroTasks(nd) {
			zeroTask[nd.Name] = true
		}
	}
	bindErr := error(nil)
	bind := func(name string) rts.OpSpec {
		if zeroTask[name] {
			return rts.OpSpec{Op: sched.Op{Name: name, N: 0}}
		}
		s, err := m.spec(name)
		if err != nil {
			bindErr = err
			return rts.OpSpec{Op: sched.Op{Name: name, N: 1, Time: func(int) float64 { return 0 }}}
		}
		// The kernels' log-normal draw: unit mean at the measured cv,
		// scaled to the measured μ.
		times := native.LogNormalTimes(0x5ea8c4, name, s.Op.N, cvOf(s))
		for i := range times {
			times[i] *= s.Mu
		}
		s.Op.Time = func(i int) float64 { return times[i] }
		s.Op.Bytes = 64
		s.SetupBytes = 0
		return s
	}
	res, err := rts.RunGraph(cfg, g, bind, rts.RunOpts{
		Processors: m.procs(), Mode: rts.ModeSplit, Omega: m.omega(),
	})
	if err != nil {
		return 0, err
	}
	if bindErr != nil {
		return 0, bindErr
	}
	return res.Makespan, nil
}

// rank orders candidate indices by model estimate, ties toward lower
// transformation degree, then by ID for determinism.
func rank(cands []Candidate, est []float64) []int {
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if est[i] != est[j] {
			return est[i] < est[j]
		}
		if cands[i].Degree != cands[j].Degree {
			return cands[i].Degree < cands[j].Degree
		}
		return cands[i].ID < cands[j].ID
	})
	return idx
}
