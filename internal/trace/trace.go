// Package trace collects execution metrics from simulated runs:
// makespan, per-processor busy time, efficiency, speedup, and event
// counts. Every experiment in the benchmark harness reports through
// these types.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Result summarizes one parallel execution.
type Result struct {
	Name       string
	Processors int
	// Unit names the time unit of Makespan, SeqTime and Busy. Empty
	// means simulator units (one unit ≈ a small task); the native
	// backend reports wall-clock seconds as "s".
	Unit string
	// Makespan is the parallel completion time.
	Makespan float64
	// SeqTime is the total task work (the one-processor execution
	// time, excluding parallel overheads).
	SeqTime float64
	// Busy is the per-processor busy time (task execution only).
	Busy []float64
	// Chunks counts scheduling events (chunk dispatches).
	Chunks int
	// Steals counts chunk re-assignments between processors.
	Steals int
	// Messages counts point-to-point messages.
	Messages int
	// ChainHits counts consumer chunks executed on the cache-chain
	// path: run by the worker that completed the enabling producer
	// chunk, while its output was still cache-resident. Zero on the
	// simulator and in non-chained native modes.
	ChainHits int
	// ChainSpills counts enabled consumer blocks the chain path
	// handed back to the work-stealing deques (depth limit or
	// cancellation) instead of running in place.
	ChainSpills int
	// ChainFallbacks counts enabled consumer blocks the enabling worker
	// could not run because it crashed: it left them on its deque for
	// the survivors to steal.
	ChainFallbacks int
	// Comm is the measured total communication time in Unit: on the
	// dist backend, wall-clock time spent moving grants, data blocks
	// and completions over sockets (send→receive, minus the worker's
	// own execution time). Zero on shared-memory backends; the
	// simulator folds its *modeled* message costs into Makespan
	// instead.
	Comm float64
	// CommBytes is the measured payload volume behind Comm: data-block
	// bytes actually serialized across process boundaries.
	CommBytes int64
}

// Speedup reports SeqTime / Makespan.
func (r Result) Speedup() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.SeqTime / r.Makespan
}

// Efficiency reports Speedup / Processors, the paper's efficiency
// metric ("performance given the 512 processors divided by the
// sequential performance").
func (r Result) Efficiency() float64 {
	if r.Processors <= 0 {
		return 0
	}
	return r.Speedup() / float64(r.Processors)
}

// TotalBusy sums the per-processor busy times.
func (r Result) TotalBusy() float64 {
	sum := 0.0
	for _, b := range r.Busy {
		sum += b
	}
	return sum
}

// LoadImbalance reports max busy / mean busy (1.0 = perfectly even).
func (r Result) LoadImbalance() float64 {
	if len(r.Busy) == 0 {
		return 0
	}
	max, sum := 0.0, 0.0
	for _, b := range r.Busy {
		if b > max {
			max = b
		}
		sum += b
	}
	mean := sum / float64(len(r.Busy))
	if mean <= 0 {
		return 0
	}
	return max / mean
}

// String renders a one-line summary.
func (r Result) String() string {
	unit := r.Unit
	if unit != "" {
		unit = " " + unit
	}
	return fmt.Sprintf("%s: p=%d makespan=%.1f%s speedup=%.1f eff=%.1f%% chunks=%d steals=%d msgs=%d",
		r.Name, r.Processors, r.Makespan, unit, r.Speedup(), 100*r.Efficiency(),
		r.Chunks, r.Steals, r.Messages)
}

// Series is a labelled sequence of (x, result) points, one curve of a
// figure.
type Series struct {
	Label  string
	X      []float64
	Points []Result
}

// Add appends one point.
func (s *Series) Add(x float64, r Result) {
	s.X = append(s.X, x)
	s.Points = append(s.Points, r)
}

// Table renders a set of series as an aligned text table of speedups,
// the form of the paper's Figure 6.
func Table(title, xLabel string, series []*Series, metric func(Result) float64, metricLabel string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", title, metricLabel)
	// Header.
	fmt.Fprintf(&b, "%-10s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %16s", s.Label)
	}
	b.WriteByte('\n')
	// Collect all x values.
	xs := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	var sorted []float64
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	for _, x := range sorted {
		fmt.Fprintf(&b, "%-10.0f", x)
		for _, s := range series {
			found := false
			for i, sx := range s.X {
				if sx == x {
					fmt.Fprintf(&b, " %16.1f", metric(s.Points[i]))
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(&b, " %16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
