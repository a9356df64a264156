// Package experiment regenerates the paper's evaluation (§5): the
// Figure 6 processor sweep for Psirrfan, the in-text climate-model
// measurements (Table 1), and the processor-doubling table (Table 2),
// plus the ablations DESIGN.md lists — all on the simulated machine.
// cmd/orchbench and examples/{climate,tomography} drive these entry
// points.
package experiment

import (
	"fmt"
	"strings"

	"orchestra/internal/machine"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/trace"
	"orchestra/internal/workload"
)

// RunApp executes one application at one processor count under one
// mode. Speedup and efficiency are measured against the original
// (unsplit) program's sequential work, as the paper defines
// efficiency.
func RunApp(app *workload.App, p int, mode rts.Mode) trace.Result {
	cfg := machine.DefaultConfig(p)
	g := app.GraphFor(mode, p)
	r, err := rts.RunGraph(cfg, g, app.Bind, rts.RunOpts{Processors: p, Mode: mode})
	if err != nil {
		panic(fmt.Sprintf("experiment: %s/%v: %v", app.Name, mode, err))
	}
	r.SeqTime = app.SeqTime()
	r.Name = fmt.Sprintf("%s/%s", mode, app.Name)
	return r
}

// Figure6 sweeps Psirrfan over processor counts for the three
// configurations of the paper's Figure 6: static, TAPER, and TAPER
// with split.
func Figure6(n int, seed uint64, procs []int) []*trace.Series {
	modes := []rts.Mode{rts.ModeStatic, rts.ModeTaper, rts.ModeSplit}
	series := make([]*trace.Series, len(modes))
	for mi, mode := range modes {
		series[mi] = &trace.Series{Label: mode.String()}
		for _, p := range procs {
			app := workload.Psirrfan(workload.Config{N: n, Seed: seed})
			series[mi].Add(float64(p), RunApp(app, p, mode))
		}
	}
	return series
}

// Table1Row is one line of the climate-model comparison.
type Table1Row struct {
	Config string
	Result trace.Result
	// Paper's reported values for the corresponding configuration.
	PaperEff     float64
	PaperSpeedup float64
}

// Table1 reproduces the in-text climate-model measurements: TAPER on
// 512 processors (paper: 87% efficiency, speedup 445), TAPER on 1024
// (57%, 581), and TAPER+split on 1024 (83%, 850), on ~3200 grid cells.
func Table1(n int, seed uint64) []Table1Row {
	mk := func() *workload.App { return workload.Climate(workload.Config{N: n, Seed: seed}) }
	return []Table1Row{
		{Config: "TAPER p=512", Result: RunApp(mk(), 512, rts.ModeTaper), PaperEff: 0.87, PaperSpeedup: 445},
		{Config: "TAPER p=1024", Result: RunApp(mk(), 1024, rts.ModeTaper), PaperEff: 0.57, PaperSpeedup: 581},
		{Config: "TAPER+split p=1024", Result: RunApp(mk(), 1024, rts.ModeSplit), PaperEff: 0.83, PaperSpeedup: 850},
	}
}

// Table2Row is one line of the processor-doubling table.
type Table2Row struct {
	App        string
	P          int
	EffAtP     float64
	EffAt2P    float64
	LossPoints float64 // efficiency percentage points lost by doubling
}

// Table2 reproduces the claim that with split, doubling the processor
// count costs only five to fifteen percent efficiency, for each of the
// four applications.
func Table2(n int, seed uint64, p int) []Table2Row {
	var rows []Table2Row
	for _, mk := range []func() *workload.App{
		func() *workload.App { return workload.Psirrfan(workload.Config{N: n, Seed: seed}) },
		func() *workload.App { return workload.Climate(workload.Config{N: n, Seed: seed}) },
		func() *workload.App { return workload.EMU(workload.Config{N: n, Seed: seed}) },
		func() *workload.App { return workload.Vortex(workload.Config{N: n, Seed: seed}) },
	} {
		a := mk()
		e1 := RunApp(a, p, rts.ModeSplit).Efficiency()
		e2 := RunApp(mk(), 2*p, rts.ModeSplit).Efficiency()
		rows = append(rows, Table2Row{
			App:        a.Name,
			P:          p,
			EffAtP:     e1,
			EffAt2P:    e2,
			LossPoints: 100 * (e1 - e2),
		})
	}
	return rows
}

// taperCost is TAPER with the learned cost function, as ModeTaper and
// ModeSplit run it.
func taperCost() sched.Policy { return &sched.Taper{UseCostFunction: true} }

// runOp runs spec alone on p processors through rts.RunGraph.
func runOp(cfg machine.Config, spec rts.OpSpec, p int, mode rts.Mode) trace.Result {
	r, err := rts.RunOp(cfg, spec, rts.RunOpts{Processors: p, Mode: mode})
	if err != nil {
		panic(fmt.Sprintf("experiment: %s/%v: %v", spec.Op.Name, mode, err))
	}
	return r
}

// AblationCostFunction compares TAPER with and without the learned
// cost function (§4.1.1: the runtime "does additional sampling of task
// costs to build a cost function") on one irregular operation: with
// warm hints the decomposition is cost-balanced, chunks are budgeted in
// time, and stragglers start early; cold, the runtime starts from task
// counts and has only the samples it takes as it runs.
func AblationCostFunction(n, p int, seed uint64) (with, without trace.Result) {
	app := workload.Vortex(workload.Config{N: n, Seed: seed})
	warm := app.Bind("vel")
	cold := warm
	cold.Op.Hint = nil
	cfg := machine.DefaultConfig(p)
	return runOp(cfg, warm, p, rts.ModeTaper), runOp(cfg, cold, p, rts.ModeTaper)
}

// AblationAllocation compares the iterative processor-allocation
// algorithm against a naive half/half division for a concurrent
// irregular/regular pair, each operation on the processor subset the
// allocation gave it.
func AblationAllocation(n, p int, seed uint64) (iterative, naive trace.Result) {
	app := workload.Climate(workload.Config{N: n, Seed: seed})
	a, b := app.Bind("cloud"), app.Bind("radI")
	cfg := machine.DefaultConfig(p)
	alloc := rts.AllocateMany(cfg, []rts.OpSpec{a, b}, p, nil)
	return dedicated(cfg, a, b, alloc[0], alloc[1]), dedicated(cfg, a, b, p/2, p-p/2)
}

// dedicated measures an allocation the way §4.1.2 defines one: a runs
// on its own p1 processors and b on its own p2, TAPER within each
// subset and nothing crossing between them. The pair finishes when the
// slower side does.
func dedicated(cfg machine.Config, a, b rts.OpSpec, p1, p2 int) trace.Result {
	ra := runOp(cfg, a, p1, rts.ModeTaper)
	rb := runOp(cfg, b, p2, rts.ModeTaper)
	return trace.Result{
		Processors: p1 + p2,
		Makespan:   max(ra.Makespan, rb.Makespan),
		SeqTime:    ra.SeqTime + rb.SeqTime,
		Chunks:     ra.Chunks + rb.Chunks,
		Steals:     ra.Steals + rb.Steals,
		Messages:   ra.Messages + rb.Messages,
	}
}

// AblationDistributed compares the distributed (owner-computes +
// re-assignment) execution, the simulator's TAPER run of the operation,
// against the centralized queue for the same TAPER policy.
func AblationDistributed(n, p int, seed uint64) (distributed, central trace.Result) {
	app := workload.Psirrfan(workload.Config{N: n, Seed: seed})
	spec := app.Bind("update")
	cfg := machine.DefaultConfig(p)
	distributed = runOp(cfg, spec, p, rts.ModeTaper)
	central = sched.ExecuteCentral(cfg, spec.Op, idents(p), taperCost)
	return distributed, central
}

// AblationMaxCount sweeps the allocation iteration bound, reporting
// the pair's makespan on the dedicated subsets each setting yields (the
// paper: "using a max_count of four has been sufficient"). A count of
// zero is no iteration at all: the half/half division the algorithm
// starts from, which rts.Allocate cannot be asked for because it reads
// a non-positive bound as DefaultMaxCount.
func AblationMaxCount(n, p int, seed uint64, counts []int) []trace.Result {
	app := workload.Climate(workload.Config{N: n, Seed: seed})
	a, b := app.Bind("cloud"), app.Bind("radI")
	cfg := machine.DefaultConfig(p)
	var out []trace.Result
	for _, mc := range counts {
		p1, p2 := p/2, p-p/2
		if mc > 0 {
			p1, p2 = rts.Allocate(
				func(q int) float64 { return rts.FinishEstimate(cfg, a, q).Total() },
				func(q int) float64 { return rts.FinishEstimate(cfg, b, q).Total() },
				p, mc, rts.DefaultEpsilon)
		}
		r := dedicated(cfg, a, b, p1, p2)
		r.Name = fmt.Sprintf("max_count=%d", mc)
		out = append(out, r)
	}
	return out
}

// PolicyRow is one line of the scheduler-policy comparison.
type PolicyRow struct {
	Policy string
	Result trace.Result
}

// Policies compares the loop schedulers the paper builds on and cites —
// self-scheduling, guided self-scheduling [Polychronopoulos & Kuck],
// factoring [Hummel et al.], and TAPER [Lucco] with and without the
// cost function — on the psirrfan update operation, cold (no learned
// hints), where the policies differ most. Each runs on the central
// queue, the setting these chunk rules were designed for; the static
// row is the simulator's ModeStatic run of the operation.
func Policies(n, p int, seed uint64) []PolicyRow {
	app := workload.Psirrfan(workload.Config{N: n, Seed: seed})
	spec := app.Bind("update")
	spec.Op.Hint = nil
	cfg := machine.DefaultConfig(p)
	out := []PolicyRow{{Policy: "static", Result: runOp(cfg, spec, p, rts.ModeStatic)}}
	for _, r := range []struct {
		name    string
		factory sched.Factory
	}{
		{"SS", func() sched.Policy { return sched.SelfSched{} }},
		{"GSS", func() sched.Policy { return sched.GSS{} }},
		{"factoring", func() sched.Policy { return &sched.Factoring{} }},
		{"TAPER", func() sched.Policy { return &sched.Taper{} }},
		{"TAPER+costfn", taperCost},
	} {
		out = append(out, PolicyRow{Policy: r.name, Result: sched.ExecuteCentral(cfg, spec.Op, idents(p), r.factory)})
	}
	return out
}

// FormatPolicies renders the policy comparison.
func FormatPolicies(rows []PolicyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %8s %8s\n", "policy", "makespan", "eff", "chunks", "messages")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10.1f %9.1f%% %8d %8d\n",
			r.Policy, r.Result.Makespan, 100*r.Result.Efficiency(),
			r.Result.Chunks, r.Result.Messages)
	}
	return b.String()
}

// FormatTable1 renders Table1 rows with paper-vs-measured columns.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12s %12s %14s %14s\n",
		"config", "paper eff", "measured", "paper speedup", "measured")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %11.0f%% %11.1f%% %14.0f %14.1f\n",
			r.Config, 100*r.PaperEff, 100*r.Result.Efficiency(),
			r.PaperSpeedup, r.Result.Speedup())
	}
	return b.String()
}

// FormatTable2 renders Table2 rows.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %10s %10s %12s\n", "app", "p->2p", "eff@p", "eff@2p", "loss(pts)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %4d->%-4d %9.1f%% %9.1f%% %12.1f\n",
			r.App, r.P, 2*r.P, 100*r.EffAtP, 100*r.EffAt2P, r.LossPoints)
	}
	return b.String()
}

func idents(p int) []int {
	out := make([]int, p)
	for i := range out {
		out[i] = i
	}
	return out
}
