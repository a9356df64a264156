package fuzz

import (
	"fmt"
	"sync"
	"sync/atomic"

	"orchestra/internal/interp"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
)

// Instance is one run's memory image: fresh version buffers over the
// lowering's immutable plan. A single Instance must see exactly one
// graph execution, and every engine calls each task body exactly once
// in it, so an element a task has not written yet is simply unwritten.
type Instance struct {
	low *Lowered

	aVals   [][]float64
	aFlag   [][]bool
	aWriter [][]int32
	sVal    []float64
	sSet    []bool

	ops []opRun

	// checkSim enables the execution-order oracle: every read of a value
	// another operator produced is checked against the completion marks
	// of that operator's tasks. It is sound only for the simulator's
	// ModeSplit runs, which execute every body on a single goroutine, so
	// the marks are exact.
	checkSim bool

	mu         sync.Mutex
	failure    string
	violations []string
}

// opRun is one operator's completion marks: mark[t] is set when task
// t's body returns.
type opRun struct {
	mark []uint32
	pfx  int
}

// prefix returns the length of the contiguous completed prefix of the
// op's tasks. Marks only ever get set, so the cached pointer just
// advances.
func (o *opRun) prefix() int {
	i := o.pfx
	for i < len(o.mark) && atomic.LoadUint32(&o.mark[i]) != 0 {
		i++
	}
	o.pfx = i
	return i
}

// NewInstance materializes fresh buffers for one execution.
func (l *Lowered) NewInstance(checkSim bool) *Instance {
	in := &Instance{
		low:      l,
		checkSim: checkSim,
		aVals:    make([][]float64, len(l.aPlans)),
		aFlag:    make([][]bool, len(l.aPlans)),
		aWriter:  make([][]int32, len(l.aPlans)),
		sVal:     make([]float64, len(l.sPlans)),
		sSet:     make([]bool, len(l.sPlans)),
		ops:      make([]opRun, len(l.kernels)),
	}
	for id, p := range l.aPlans {
		n := l.sizes[p.name]
		in.aVals[id] = make([]float64, n)
		in.aFlag[id] = make([]bool, n)
		in.aWriter[id] = make([]int32, n)
	}
	for i, k := range l.kernels {
		in.ops[i] = opRun{mark: make([]uint32, k.n)}
	}
	return in
}

// Binder exposes the instance to a backend. Task costs are a
// deterministic hash of (op, task) so every backend and processor
// count sees identical cost structure — enough spread to exercise
// TAPER's adaptation without making runs irreproducible.
func (in *Instance) Binder() rts.Binder {
	return func(name string) rts.OpSpec {
		k := in.low.byName[name]
		if k == nil {
			// Unknown names only arise from backend bugs; surface them
			// as an empty op rather than a panic inside the engine.
			return rts.OpSpec{Op: sched.Op{Name: name}}
		}
		spec := rts.OpSpec{
			Op:         sched.Op{Name: name, N: k.n, Bytes: 8},
			Mu:         1.5,
			Sigma:      0.6,
			SetupBytes: 64,
		}
		kk := k
		spec.Op.Time = func(i int) float64 { return in.runTask(kk, i) }
		spec.Pack = func(lo, hi int) []byte { return in.packWrites(kk, lo, hi) }
		spec.Apply = func(lo, hi int, blob []byte) { in.applySegment(kk, lo, hi, blob) }
		return spec
	}
}

// RunSequential executes every kernel's tasks once, in graph node
// order (which the lowering keeps topological). This is the lowered
// baseline the backends are compared against bitwise: any backend
// divergence from it is an orchestration bug, not a lowering bug.
func (in *Instance) RunSequential() error {
	for _, k := range in.low.kernels {
		for t := 0; t < k.n; t++ {
			in.runTask(k, t)
		}
		if f := in.Failure(); f != "" {
			return fmt.Errorf("fuzz: sequential run: %s", f)
		}
	}
	return nil
}

// Failure returns the first task runtime error, if any.
func (in *Instance) Failure() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.failure
}

// Violations returns the recorded execution-order violations.
func (in *Instance) Violations() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.violations...)
}

func (in *Instance) recordFailure(op string, task int, msg string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.failure == "" {
		in.failure = fmt.Sprintf("%s task %d: %s", op, task, msg)
	}
}

func (in *Instance) violate(format string, args ...interface{}) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.violations) < 16 {
		in.violations = append(in.violations, fmt.Sprintf(format, args...))
	}
}

// FinalArray resolves an array's final contents: the initial image
// with each version's written elements applied in creation order.
func (in *Instance) FinalArray(name string) []float64 {
	out := append([]float64(nil), in.low.initA[name]...)
	for _, id := range in.low.chainA[name] {
		vals, flag := in.aVals[id], in.aFlag[id]
		for i, f := range flag {
			if f {
				out[i] = vals[i]
			}
		}
	}
	return out
}

// FinalScalar resolves a scalar's final value.
func (in *Instance) FinalScalar(name string) float64 {
	v := in.low.initS[name]
	for _, id := range in.low.chainS[name] {
		if in.sSet[id] {
			v = in.sVal[id]
		}
	}
	return v
}

// runTask executes one task of one kernel and returns its simulated
// cost. It never panics into the calling engine: evaluation failures
// (the interpreter's: bad subscripts, division by zero, step limits —
// and any internal bug) are recorded on the instance, and the
// differential oracle reports them as divergences.
func (in *Instance) runTask(k *kernel, t int) float64 {
	defer func() {
		if r := recover(); r != nil {
			in.recordFailure(k.name, t, fmt.Sprintf("internal panic: %v", r))
		}
		if in.checkSim {
			atomic.StoreUint32(&in.ops[k.idx].mark[t], 1)
		}
	}()
	if err := in.execTask(k, t); err != nil {
		in.recordFailure(k.name, t, err.Error())
	}
	return taskCost(k.idx, t)
}

const maxTaskSteps = 10_000_000

// execTask evaluates task t's statements with the interpreter's own
// evaluator over the task's view of the versioned memory, so the
// lowered baseline matches the interpreter bit for bit.
func (in *Instance) execTask(k *kernel, t int) error {
	m := &taskMem{in: in, k: k, task: t}
	ev := interp.Eval{Mem: m, MaxSteps: maxTaskSteps}
	switch k.kind {
	case kParallel, kReduction:
		ev.Bind(k.loop.Var, float64(k.iters[t]))
		if k.loop.Where != nil {
			if w, err := ev.Value(k.loop.Where); err != nil || w == 0 {
				return err
			}
		}
		if k.kind == kParallel {
			return ev.Exec(k.loop.Body)
		}
		v, err := ev.Value(k.redExpr)
		if err != nil {
			return err
		}
		in.aVals[k.contrib][t] = v
		in.aWriter[k.contrib][t] = int32(t)
		in.aFlag[k.contrib][t] = true
	case kMerge:
		red := in.low.kernels[k.srcOp]
		sum, ok := m.Scalar(k.redVar)
		if !ok {
			return fmt.Errorf("unbound scalar %s", k.redVar)
		}
		vals, flag := in.aVals[red.contrib], in.aFlag[red.contrib]
		for i := 0; i < red.n; i++ {
			if flag[i] {
				m.checkProducer(red.idx, in.aWriter[red.contrib][i])
				sum += vals[i]
			}
		}
		m.SetScalar(k.redVar, sum)
	case kSerial:
		return ev.Exec(k.stmts)
	}
	return nil
}

func taskCost(op, i int) float64 {
	h := (uint64(op)+1)*0x9e3779b97f4a7c15 ^ (uint64(i)+1)*0x2545f4914f6cdd1d
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return 0.5 + float64(h&2047)/1024.0
}

// checkProducer verifies that reading a value produced by another op's
// task is legal at this point of the scheduled execution: the engine
// must already have completed that producer task (through a pipelined
// edge's delivered prefix, or the producer entirely for ordinary
// edges). An element read before its producer task ran is simply
// unwritten and shows in the value diff; this check covers the reads
// that do find a value — the producer task has run, but the edge's
// condition was not yet met — and names the broken edge.
//
// Completion marks are set when a task's body returns, which precedes
// the engine's own completion accounting; the marked prefix therefore
// never lags what a correct engine has completed, and a violation here
// is a true ordering error, not a measurement artifact.
func (m *taskMem) checkProducer(owner int, writer int32) {
	k, in := m.k, m.in
	if !in.checkSim || owner == k.idx {
		return
	}
	P := in.low.kernels[owner]
	pfx := in.ops[owner].prefix()
	cls, direct := k.inE[owner]
	switch {
	case direct && cls == 2:
		if int(writer) >= pfx {
			in.violate("%s read task %d of pipelined producer %s, but only %d/%d delivered",
				k.name, writer, P.name, pfx, P.n)
		}
	case direct:
		if pfx < P.n {
			in.violate("%s read producer %s before completion (%d/%d done)",
				k.name, P.name, pfx, P.n)
		}
	case in.low.plainAnc[k.idx][owner]:
		if pfx < P.n {
			in.violate("%s read transitive producer %s before completion (%d/%d done)",
				k.name, P.name, pfx, P.n)
		}
	case in.low.anyAnc[k.idx][owner]:
		// Reachable only through a pipelined edge: the transitive
		// prefix bound is not expressible per element, so skip.
	default:
		in.violate("%s read a value written by %s with no dataflow path between them",
			k.name, P.name)
	}
}

// taskMem is one task's view of the versioned memory, the interp.Memory
// its statements are evaluated over: a read resolves through the
// kernel's version chain down to the initial image, a write lands in
// the kernel's own output version.
type taskMem struct {
	in   *Instance
	k    *kernel
	task int
}

func (m *taskMem) Scalar(name string) (float64, bool) {
	in := m.in
	if id, ok := m.k.verS[name]; ok {
		for ; id >= 0; id = in.low.sPlans[id].prev {
			if in.sSet[id] {
				m.checkProducer(in.low.sPlans[id].owner, 0)
				return in.sVal[id], true
			}
		}
	}
	v, ok := in.low.initS[name]
	return v, ok
}

func (m *taskMem) SetScalar(name string, v float64) {
	id, ok := m.k.writeS[name]
	if !ok {
		panic(fmt.Sprintf("scalar %s written without a version (classifier bug)", name))
	}
	m.in.sVal[id] = v
	m.in.sSet[id] = true
}

func (m *taskMem) Load(array string, idx []int64) float64 {
	in := m.in
	off := interp.Offset(array, in.low.dims[array], idx)
	if id, ok := m.k.verA[array]; ok {
		for ; id >= 0; id = in.low.aPlans[id].prev {
			if in.aFlag[id][off] {
				m.checkProducer(in.low.aPlans[id].owner, in.aWriter[id][off])
				return in.aVals[id][off]
			}
		}
	}
	return in.low.initA[array][off]
}

func (m *taskMem) Store(array string, idx []int64, v float64) {
	in := m.in
	off := interp.Offset(array, in.low.dims[array], idx)
	id, ok := m.k.writeA[array]
	if !ok {
		panic(fmt.Sprintf("array %s written without a version (classifier bug)", array))
	}
	in.aVals[id][off] = v
	in.aWriter[id][off] = int32(m.task)
	in.aFlag[id][off] = true
}
