package native

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"

	"orchestra/internal/delirium"
	"orchestra/internal/interp"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/split"
	"orchestra/internal/stats"
)

// This file provides operation bindings that do real work, so the
// same compiled graph produces actual numeric results on either
// backend. A binding is an rts.Binder whose Time function executes
// task i's body and returns a nominal simulated cost: the simulator
// charges the return value to its clock, the native backend runs the
// body and measures the wall clock. Each kernel is written once, as a
// range body (sched.Op.TimeRange) that loops over its tasks, and Time(i)
// is TimeRange(i, i+1): a chunk then runs as one loop, and no range
// calls a closure per element.
//
// Kernel tasks must obey a dataflow-safety contract so that every
// execution order any backend produces yields bit-identical results.
// Every engine, the simulator included, calls each task body exactly
// once per memory image, from the chunk its schedule put the task in
// (dist re-grants a lost worker's unfinished segment, to a process
// whose image never saw the first attempt); the contract is about what
// a body may touch when that happens:
//
//  1. Tasks are order-independent within an operator: task i writes
//     only its own elements, as a pure function of its inputs, and
//     reads nothing another task of the same operator writes.
//  2. A task may read arrays of non-pipelined predecessors at any
//     index: every engine runs it only after such producers fully
//     complete.
//  3. A task i of an operator with n tasks may read a *pipelined*
//     predecessor (pn tasks) only at indices j ≤ i·pn/n: the prefix
//     gate (rts.Frontier, driven by every engine) enables i only once
//     the producer's contiguous completed prefix covers that index.
//
// Every kernel that reads its predecessors' arrays does so through
// Input.Read, over the inputs Inputs snapshots, and names its nodes by
// HashName: the read, the input order and the node hash are defined
// here once, for ArrayKernels and the nested workloads alike.

// Input is one predecessor array a kernel reads, as its node's in-edge
// delivers it.
type Input struct {
	From      string
	Arr       []float64
	Pipelined bool
}

// Read is what task i of an n-task operator reads from the input: the
// prefix-safe index i·pn/n on a pipelined edge (contract rule 3), a
// fixed stride (i·31+7) mod pn otherwise (rule 2).
func (in Input) Read(i, n int) float64 {
	pn := len(in.Arr)
	if in.Pipelined {
		return in.Arr[i*pn/n]
	}
	return in.Arr[(i*31+7)%pn]
}

// Inputs snapshots node's predecessor arrays (array resolves a
// producer's name) after the inherited ones, sorted by producer name:
// float addition is not associative, so a kernel's summation order must
// not depend on the graph's edge-list order — a graph and its
// Encode/Decode round trip must digest identically. A producer with no
// elements contributes nothing and is left out.
func Inputs(g *delirium.Graph, node string, array func(string) []float64, inherited []Input) []Input {
	inputs := slices.Clone(inherited)
	for _, e := range g.InEdges(node) {
		if arr := array(e.From); len(arr) > 0 {
			inputs = append(inputs, Input{From: e.From, Arr: arr, Pipelined: e.Pipelined})
		}
	}
	slices.SortStableFunc(inputs, func(a, b Input) int { return strings.Compare(a.From, b.From) })
	return inputs
}

// ArrayKernels binds every node of a graph to a real array kernel
// over an interp.State memory image: node X owns the n-element array
// X in st.Arrays, and task i computes
//
//	X[i] = f(i, node) + Σ_pred pred[j_pred]
//
// with f the interpreter's deterministic external-function stand-in
// (interp.DefaultFunc) iterated `work` times — so `work` scales the
// CPU cost of a task without changing the dataflow. Pipelined
// predecessors are read at the prefix-safe index, other predecessors
// at a fixed stride, exercising real cross-operator data delivery.
// The returned state is fresh per call: each execution must start
// from zeroed arrays.
func ArrayKernels(g *delirium.Graph, n, work int) (rts.Binder, *interp.State, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("native: kernel task count %d < 1", n)
	}
	if work < 1 {
		work = 1
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	st := interp.NewState()
	specs := map[string]rts.OpSpec{}
	for _, nd := range order {
		st.Alloc(nd.Name, n)
		arr := st.Arrays[nd.Name]
		inputs := Inputs(g, nd.Name, func(name string) []float64 { return st.Arrays[name] }, nil)
		// The node's identity in task values must be canonical across an
		// Encode/Decode round trip: Encode sorts the edge list, which can
		// legally reorder TopoOrder's tie-breaking, so a topological
		// *index* would differ between a graph and its wire form (the
		// dist backend binds the decoded graph inside worker processes).
		// Hash the name instead — names survive the wire unchanged.
		nodeID := float64(HashName(nd.Name) % (1 << 20))
		bodyRange := func(lo, hi int) float64 {
			for i := lo; i < hi; i++ {
				v := 0.0
				for r := 0; r < work; r++ {
					v += interp.DefaultFunc([]float64{float64(i), nodeID, float64(r)})
				}
				for _, in := range inputs {
					v += in.Read(i, n)
				}
				arr[i] = v
			}
			return float64(hi - lo)
		}
		// Split annotation: task i always writes only X[i]. The reads are
		// pointwise only when every input is pipelined (j = i·pn/n, which
		// the chain path uses only when pn = n, i.e. j = i); a strided
		// non-pipelined input makes the kernel's reads unbounded, so the
		// annotation degrades to reads-all and the edge stays on the
		// barrier path.
		ann := &split.Annotation{Read: split.AccessAll, Write: split.AccessElement}
		allPip := true
		for _, in := range inputs {
			if !in.Pipelined {
				allPip = false
				break
			}
		}
		if allPip {
			ann = split.Pointwise()
		}
		specs[nd.Name] = rts.OpSpec{
			Op: sched.Op{
				Name:      nd.Name,
				N:         n,
				Time:      func(i int) float64 { return bodyRange(i, i+1) },
				TimeRange: bodyRange,
				Bytes:     8,
			},
			Mu:    1,
			Split: ann,
			// Cross-process transport (rts.OpSpec.Pack/Apply): task i owns
			// exactly X[i], so a segment's durable results are the raw
			// IEEE-754 bits of arr[lo:hi].
			Pack: func(lo, hi int) []byte {
				blob := make([]byte, 8*(hi-lo))
				for i := lo; i < hi; i++ {
					binary.LittleEndian.PutUint64(blob[8*(i-lo):], math.Float64bits(arr[i]))
				}
				return blob
			},
			Apply: func(lo, hi int, blob []byte) {
				for i := lo; i < hi && 8*(i-lo)+8 <= len(blob); i++ {
					arr[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[8*(i-lo):]))
				}
			},
		}
	}
	return func(name string) rts.OpSpec { return specs[name] }, st, nil
}

// StateDigest fingerprints a kernel execution's final memory image:
// SHA-256 over every array (sorted by name) — name, length, and the
// IEEE-754 bit pattern of each element. Two runs produced bitwise-
// identical results if and only if their digests match, which is how
// the serve daemon's clients (and bench's serve-hot) compare a job
// executed on the shared pool against a local one-shot run without
// shipping whole arrays around.
//
// Elements are encoded into a fixed stack block and hashed a block at a
// time: the byte stream is the one a Write per element would produce
// (TestStateDigestGolden holds it), at SHA-256's bulk rate instead of
// its per-call overhead.
func StateDigest(st *interp.State) string {
	names := make([]string, 0, len(st.Arrays))
	for name := range st.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var buf [digestBlock]byte
	for _, name := range names {
		arr := st.Arrays[name]
		h.Write([]byte(name))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:], uint64(len(arr)))
		h.Write(buf[:8])
		for len(arr) > 0 {
			k := min(len(arr), digestBlock/8)
			for i, v := range arr[:k] {
				binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
			}
			h.Write(buf[:8*k])
			arr = arr[k:]
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestBlock is StateDigest's encode buffer in bytes: small enough to
// live on the stack, large enough that SHA-256's per-Write cost vanishes.
const digestBlock = 4096

// SpinBinder binds every node to a synthetic CPU-bound operation of
// count tasks whose task times are log-normally distributed with unit
// mean and the given coefficient of variation (the same distribution
// cmd/orchrun uses for the simulator), scaled so one time unit burns
// roughly unitWork iterations of floating-point work. The returned
// binder is usable on both backends: the simulator charges the drawn
// cost, the native backend actually spins for it.
func SpinBinder(g *delirium.Graph, count func(node *delirium.Node) int, cv float64, seed uint64, unitWork int) rts.Binder {
	if unitWork < 1 {
		unitWork = 1
	}
	specs := map[string]rts.OpSpec{}
	for _, nd := range g.Nodes {
		t := LogNormalTimes(seed, nd.Name, count(nd), cv)
		bodyRange := func(lo, hi int) float64 {
			sum := 0.0
			for i := lo; i < hi; i++ {
				spin(int(t[i] * float64(unitWork)))
				sum += t[i]
			}
			return sum
		}
		spec := rts.OpSpec{Op: sched.Op{
			Name:      nd.Name,
			N:         len(t),
			Bytes:     64,
			Time:      func(i int) float64 { return bodyRange(i, i+1) },
			TimeRange: bodyRange,
			Hint:      func(i int) float64 { return t[i] },
		}}
		spec.SampleStats(128)
		specs[nd.Name] = spec
	}
	return func(name string) rts.OpSpec { return specs[name] }
}

// Spin burns approximately iters iterations of floating-point work.
// Exported for binders elsewhere (bench/conserve.go's work-conserving
// binder) that need the same calibrated busy-loop SpinBinder uses.
func Spin(iters int) { spin(iters) }

// spin burns approximately iters iterations of floating-point work.
func spin(iters int) {
	v := 1.0
	for i := 0; i < iters; i++ {
		v += math.Sqrt(v + float64(i&7))
	}
	// Defeats dead-code elimination of the loop without a shared write.
	runtime.KeepAlive(v)
}

// HashName is FNV-1a over a node name: the identity every kernel
// derives per-node values and random streams from, stable across an
// Encode/Decode round trip.
func HashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// LogNormalTimes draws node name's n task times: log-normal with unit
// mean and coefficient of variation cv, from the stream seeded with
// seed ⊕ HashName(name). SpinBinder and the "lognormal" family both
// draw through it.
func LogNormalTimes(seed uint64, name string, n int, cv float64) []float64 {
	sigma := math.Sqrt(math.Log(1 + cv*cv))
	mu := -sigma * sigma / 2
	rng := stats.NewRNG(seed ^ HashName(name))
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.LogNormal(mu, sigma)
	}
	return times
}

// CostSpec binds an operator whose task i costs times[i] as a modeled
// cost, with nothing to execute: the simulator's synthetic workload.
func CostSpec(name string, times []float64) rts.OpSpec {
	spec := rts.OpSpec{Op: sched.Op{
		Name:  name,
		N:     len(times),
		Time:  func(i int) float64 { return times[i] },
		Bytes: 64,
		Hint:  func(i int) float64 { return times[i] },
	}}
	spec.SampleStats(128)
	return spec
}
