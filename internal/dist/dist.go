package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"orchestra/internal/delirium"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
	taskop "orchestra/internal/sched"
	"orchestra/internal/stats"
	"orchestra/internal/trace"
)

// Backend is the distributed coordinator. Like the other backends it
// is a value whose Run calls are independent; the per-instance fields
// only set defaults a RunOpts cannot express.
type Backend struct {
	// Workers is the default worker-process count when
	// RunOpts.Processors is zero. Zero means min(GOMAXPROCS, 4) —
	// forking is expensive, so the default stays modest.
	Workers int
	// Heartbeat is the workers' heartbeat period in seconds (0 =
	// 0.02). Heartbeats prove liveness while a long segment computes;
	// a SIGKILLed worker is detected faster, through socket EOF.
	Heartbeat float64
	// Timeout is how long a worker may stay completely silent before
	// the coordinator declares it dead and re-issues its work (0 = 2s).
	Timeout float64
	// Bin is the worker binary to fork. Empty means os.Executable() —
	// the coordinator re-executes itself, which is what guarantees the
	// worker's kernel and backend registries match its own.
	Bin string
}

// Name implements rts.Backend.
func (Backend) Name() string { return "dist" }

// distSupported: Labels would have to act inside the worker processes
// and is not implemented, and runtime expansion is not either. Fault
// plans (crash is a real SIGKILL) and the chain policy (trivially
// satisfied: segments are delivered by message, nothing is
// cache-chained) need no declaration.
var distSupported = rts.Supported{}

func init() {
	rts.RegisterBackend(rts.BackendInfo{Name: "dist", Measured: true, Distributed: true},
		func(cfg rts.BackendConfig) (rts.Backend, error) {
			if err := rts.CheckOptions("dist", cfg.Options, "heartbeat_ms", "timeout_ms", "bin"); err != nil {
				return nil, err
			}
			b := Backend{Workers: cfg.Processors, Bin: cfg.Options["bin"]}
			if v, ok := cfg.Options["heartbeat_ms"]; ok {
				ms, err := strconv.ParseFloat(v, 64)
				if err != nil || ms <= 0 {
					return nil, fmt.Errorf("dist: bad heartbeat_ms %q", v)
				}
				b.Heartbeat = ms / 1000
			}
			if v, ok := cfg.Options["timeout_ms"]; ok {
				ms, err := strconv.ParseFloat(v, 64)
				if err != nil || ms <= 0 {
					return nil, fmt.Errorf("dist: bad timeout_ms %q", v)
				}
				b.Timeout = ms / 1000
			}
			return b, nil
		})
}

func distDefaultProcs() int {
	p := runtime.GOMAXPROCS(0)
	if p > 4 {
		p = 4
	}
	if p < 1 {
		p = 1
	}
	return p
}

// seg is one granted (or grantable) task segment.
type seg struct {
	op, lo, hi, seq int
}

// held is a segment a worker has been granted and not yet answered.
type held struct {
	seg
	sent time.Time
}

// credit is how many segments a live worker may hold: the one it runs
// and the next, so that it starts the second without waiting for the
// coordinator to hear of the first.
const credit = 2

// grainOverheads is the floor under an adaptive grant: no segment is
// carved smaller than the task count whose measured execution time is
// this many times the run's measured mean cost of a grant (the sched
// term of the finishing-time estimate, amortised).
const grainOverheads = 8

// opState is the coordinator's grant state for one operator; readiness
// lives in the Frontier.
type opState struct {
	next  int               // lowest never-granted task index
	block int               // static mode: fixed block size, set at first grant
	stats *taskop.TaskStats // task times, from the exec-ns of every done
}

// wstate is the coordinator's view of one worker process in one run.
type wstate struct {
	id     int
	proc   *proc
	leased bool // from the idle set: replaced, not reported, if dead before job-ok
	ok     bool // accepted the job
	alive  bool
	bye    bool   // signed off with the coordinator's digest
	held   []held // oldest first, at most credit; the head is the one running
	// lastDone is when the previous done arrived: a queued grant's cost
	// is charged from there, not from when it was sent.
	lastDone time.Time
	lastSeen time.Time
	execSum  float64
}

// wmsg is one decoded frame (or a connection death) delivered to the
// scheduler by a worker's reader goroutine.
type wmsg struct {
	w       int
	typ     byte
	payload []byte
	err     error
}

// sched is the coordinator's single-goroutine scheduling state.
type sched struct {
	g        *delirium.Graph
	opts     rts.RunOpts
	mode     rts.Mode
	f        *rts.Frontier
	ops      []opState // parallel to the Frontier's operator table
	taper    taskop.Taper
	workers  []*wstate
	regrants []seg
	msgCh    chan wmsg
	stop     chan struct{}
	rec      *obs.Recorder
	t0       time.Time

	seq  int
	live int
	// overhead is the measured cost of a grant beyond its execution:
	// what chunkSize amortises.
	overhead stats.Welford

	// result accumulators
	grants    int
	msgsSent  int
	msgsRecv  int
	comm      float64
	commBytes int64
}

// newSched builds the scheduling state for p workers from the
// coordinator's own binding — the same specs the workers reconstruct
// from the binding's name. Pipelined edges deliver every prefix advance
// (batch 1): a grant already costs a message, so there is nothing to
// amortise.
func newSched(g *delirium.Graph, bind rts.Binder, opts rts.RunOpts, p int) (*sched, error) {
	f, err := rts.NewFrontier(g, bind, opts.Mode == rts.ModeSplit, nil, rts.Limits{})
	if err != nil {
		return nil, err
	}
	s := &sched{
		g: g, opts: opts, mode: opts.Mode, f: f,
		ops:     make([]opState, f.Len()),
		taper:   taskop.Taper{UseCostFunction: true, Omega: opts.Omega},
		workers: make([]*wstate, p),
		msgCh:   make(chan wmsg, 4*p+16),
		stop:    make(chan struct{}),
	}
	for op := range s.ops {
		s.ops[op].stats = taskop.NewTaskStats(max(f.N(op), 1))
	}
	return s, nil
}

// Run implements rts.Backend: lease opts.Processors idle worker
// processes of this binary, forking the ones the idle set is short of,
// ship them the graph and the name-level binding, and self-schedule
// segments over the sockets until the graph completes — re-issuing the
// segments of any worker that dies mid-run to the survivors. Workers
// that signed off with the coordinator's digest go back to the idle set
// if the run returns no error; every other process is killed.
func (b Backend) Run(g *delirium.Graph, bound *rts.Bound, opts rts.RunOpts) (res trace.Result, err error) {
	if err := opts.Validate(); err != nil {
		return trace.Result{}, err
	}
	if err := opts.CheckSupported("dist", distSupported); err != nil {
		return trace.Result{}, err
	}
	// Runtime expansion would require shipping not-yet-materialized
	// sub-graphs to workers mid-run; refuse structurally rather than
	// executing Exp nodes as if they were ordinary operators.
	if err := rts.CheckGraphSupported("dist", g, distSupported); err != nil {
		return trace.Result{}, err
	}
	if bound == nil || !bound.Shippable() {
		return trace.Result{}, fmt.Errorf("dist: binding is not shippable — dist workers rebuild kernels by name from the registry, so bind with rts.Bind (a registry Binding), not rts.BindClosure")
	}
	if err := g.Validate(); err != nil {
		return trace.Result{}, err
	}
	p := opts.Processors
	if p <= 0 {
		p = b.Workers
	}
	if p <= 0 {
		p = distDefaultProcs()
	}
	if opts.Fault != nil {
		if err := opts.Fault.Validate(p); err != nil {
			return trace.Result{}, err
		}
	}

	s, err := newSched(g, bound.Spec, opts, p)
	if err != nil {
		return trace.Result{}, err
	}
	// Readers block on msgCh sends; the stop channel releases them when
	// Run stops consuming. It must stay open through the sign-off
	// collection below, or a reader racing to deliver its mBye would
	// exit on stop and drop the frame.
	defer close(s.stop)
	names := make([]string, s.f.Len())
	for i := range names {
		names[i] = s.f.Name(i)
	}
	if opts.Sink != nil {
		s.rec = obs.NewRecorder("dist", "s", names, p+1)
	}

	bin := b.Bin
	if bin == "" {
		if bin, err = os.Executable(); err != nil {
			return trace.Result{}, fmt.Errorf("dist: resolving worker binary: %w", err)
		}
	}
	hb := b.Heartbeat
	if hb <= 0 {
		hb = 0.02
	}
	timeout := b.Timeout
	if timeout <= 0 {
		timeout = 2.0
	}
	job := jobMsg{
		Graph:     g.Encode(),
		Binding:   bound.Binding,
		Mode:      int(opts.Mode),
		Omega:     opts.Omega,
		Workers:   p,
		Ops:       names,
		Heartbeat: hb,
	}
	if opts.Fault != nil {
		job.Fault = opts.Fault.String()
	}

	sp := &spawner{bin: bin}
	defer sp.close()
	defer func() { s.dismiss(err == nil) }()
	if err := s.enlist(sp, job); err != nil {
		return trace.Result{}, err
	}
	res, err = s.execute(timeout)
	if err != nil {
		return trace.Result{}, err
	}
	if err := s.signOff(bound); err != nil {
		return trace.Result{}, err
	}
	if s.rec != nil {
		if t := s.rec.Finish(res); t != nil {
			if err := opts.Sink.Consume(t); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// enlist fills every worker slot with a process that has accepted the
// job: idle workers first, forks for the rest. All workers must resolve
// the binding before scheduling starts: a registry mismatch (which
// self-execution should make impossible) or a kernel construction error
// surfaces here. A leased worker may have died while idle; one that
// turns out dead before its job-ok is replaced by a fork.
func (s *sched) enlist(sp *spawner, job jobMsg) error {
	p := len(s.workers)
	var short []int
	leased := lease(sp.bin, p)
	for id := range s.workers {
		if id < len(leased) {
			s.workers[id] = &wstate{id: id, proc: leased[id], leased: true}
			if s.start(s.workers[id], job) == nil {
				continue
			}
			leased[id].kill()
		}
		short = append(short, id)
	}
	if err := s.fork(sp, short, job); err != nil {
		return err
	}
	s.live = p

	oks := 0
	okDeadline := time.After(30 * time.Second)
	for oks < p {
		select {
		case m := <-s.msgCh:
			w := s.workers[m.w]
			if m.err != nil {
				if !w.leased || w.ok {
					return fmt.Errorf("dist: worker %d died before accepting the job: %v", m.w, m.err)
				}
				w.proc.kill()
				if err := s.fork(sp, []int{m.w}, job); err != nil {
					return err
				}
				continue
			}
			switch m.typ {
			case mJobOK:
				var ok jobOKMsg
				if err := json.Unmarshal(m.payload, &ok); err != nil {
					return err
				}
				if ok.Err != "" {
					return fmt.Errorf("dist: worker %d rejected the job: %s", m.w, ok.Err)
				}
				w.lastSeen = time.Now()
				w.ok = true
				oks++
			case mHeartbeat:
				w.lastSeen = time.Now()
			default:
				return fmt.Errorf("dist: unexpected frame %d before job-ok", m.typ)
			}
		case <-okDeadline:
			return fmt.Errorf("dist: timed out waiting for workers to accept the job (%d/%d)", oks, p)
		}
	}
	return nil
}

// fork fills the slots in ids with new processes and sends them the job.
func (s *sched) fork(sp *spawner, ids []int, job jobMsg) error {
	if len(ids) == 0 {
		return nil
	}
	procs, err := sp.fork(ids)
	if err != nil {
		for _, id := range ids {
			s.workers[id] = nil
		}
		return err
	}
	for _, id := range ids {
		s.workers[id] = &wstate{id: id, proc: procs[id]}
	}
	for _, id := range ids {
		if err := s.start(s.workers[id], job); err != nil {
			return fmt.Errorf("dist: sending job to worker %d: %w", id, err)
		}
	}
	return nil
}

// start sends a connected worker the job under its id in this run and
// starts the reader for its answers.
func (s *sched) start(w *wstate, job jobMsg) error {
	job.Worker = w.id
	if err := s.write(w, func() error { return writeJSON(w.proc.conn, mJob, job) }); err != nil {
		return err
	}
	w.alive, w.lastSeen = true, time.Now()
	go s.reader(w.id, w.proc.br)
	return nil
}

// signOff collects the workers' byes and checks every survivor's memory
// image digests bitwise-identical to the coordinator's own (the
// coordinator applied every data block locally). The workers digest
// while the coordinator does.
func (s *sched) signOff(bound *rts.Bound) error {
	for _, w := range s.workers {
		if w.alive {
			s.write(w, func() error { return writeFrame(w.proc.conn, mFinish) })
		}
	}
	localDigest, hasDigest := bound.Digest()
	byeDeadline := time.After(10 * time.Second)
	want := s.live
	for want > 0 {
		select {
		case m := <-s.msgCh:
			w := s.workers[m.w]
			if m.err != nil {
				if w.alive {
					w.alive = false
					want--
				}
				continue
			}
			switch m.typ {
			case mBye:
				var bye byeMsg
				if err := json.Unmarshal(m.payload, &bye); err != nil {
					return err
				}
				if bye.Err != "" {
					return fmt.Errorf("dist: worker %d failed: %s", m.w, bye.Err)
				}
				if hasDigest && bye.Digest != "" && bye.Digest != localDigest {
					return fmt.Errorf("dist: worker %d digest %s diverges from coordinator %s", m.w, bye.Digest, localDigest)
				}
				if w.alive {
					w.alive = false
					w.bye = true
					want--
				}
			case mHeartbeat, mDone:
				// Late frames from the run are harmless here.
			}
		case <-byeDeadline:
			return fmt.Errorf("dist: timed out waiting for %d worker sign-offs", want)
		}
	}
	return nil
}

// dismiss ends the run's hold on its processes: after a clean run the
// workers that signed off go to the idle set (their readers ended at
// bye, nothing is in flight on their sockets); every other process is
// killed and reaped.
func (s *sched) dismiss(clean bool) {
	var keep []*proc
	for _, w := range s.workers {
		switch {
		case w == nil:
		case clean && w.bye:
			keep = append(keep, w.proc)
		default:
			w.proc.kill()
		}
	}
	release(keep)
}

// write performs one socket write with a deadline, marking the worker
// dead (without re-issue — the caller handles that) on failure.
func (s *sched) write(w *wstate, f func() error) error {
	w.proc.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	err := f()
	w.proc.conn.SetWriteDeadline(time.Time{})
	if err == nil {
		s.msgsSent++
	}
	return err
}

// reader pumps one worker's frames into the scheduler's channel until
// the worker's bye, which is the last frame of a job. A read error (EOF
// for a killed process) is delivered as a death notice; per-socket FIFO
// means every frame the worker managed to send arrives first.
func (s *sched) reader(id int, br *bufio.Reader) {
	for {
		typ, payload, err := readFrame(br)
		m := wmsg{w: id, typ: typ, payload: payload, err: err}
		select {
		case s.msgCh <- m:
		case <-s.stop:
			return
		}
		if err != nil || typ == mBye {
			return
		}
	}
}

// execute is the scheduling loop: grant segments to workers with
// credit, fold completions in, gate pipelined consumers on producer
// prefixes, and survive worker deaths by re-issuing their segments.
func (s *sched) execute(timeout float64) (trace.Result, error) {
	s.t0 = time.Now()
	s.dispatchAll()
	tick := time.NewTicker(time.Duration(timeout * float64(time.Second) / 4))
	defer tick.Stop()
	var cancel <-chan struct{}
	if s.opts.Ctx != nil {
		cancel = s.opts.Ctx.Done()
	}
	for s.f.Outstanding() > 0 {
		// Every event below ends in dispatchAll. If after it nobody holds
		// a segment, nothing was grantable and nothing is in flight that
		// could make it so: heartbeats would keep this loop alive forever.
		if !s.anyHeld() {
			return trace.Result{}, fmt.Errorf("dist: stalled with %d tasks outstanding", s.f.Outstanding())
		}
		select {
		case m := <-s.msgCh:
			s.msgsRecv++
			if m.err != nil {
				if err := s.workerDied(m.w, "connection lost"); err != nil {
					return trace.Result{}, err
				}
				continue
			}
			w := s.workers[m.w]
			if !w.alive {
				// Declared dead on a failed write, with frames still to be
				// read: what it held is already re-queued.
				continue
			}
			w.lastSeen = time.Now()
			switch m.typ {
			case mHeartbeat:
			case mDone:
				if err := s.handleDone(w, m.payload); err != nil {
					return trace.Result{}, err
				}
			default:
				return trace.Result{}, fmt.Errorf("dist: unexpected frame type %d from worker %d", m.typ, m.w)
			}
		case <-tick.C:
			deadline := time.Now().Add(-time.Duration(timeout * float64(time.Second)))
			for _, w := range s.workers {
				if w.alive && w.lastSeen.Before(deadline) {
					if err := s.workerDied(w.id, "heartbeat timeout"); err != nil {
						return trace.Result{}, err
					}
				}
			}
		case <-cancel:
			return trace.Result{}, rts.CancelError("dist", s.opts.Ctx)
		}
	}
	makespan := time.Since(s.t0).Seconds()

	res := trace.Result{
		Name:       s.g.Name,
		Processors: len(s.workers),
		Unit:       "s",
		Makespan:   makespan,
		Chunks:     s.grants,
		Messages:   s.msgsSent + s.msgsRecv,
		Comm:       s.comm,
		CommBytes:  s.commBytes,
	}
	res.Busy = make([]float64, len(s.workers))
	for i, w := range s.workers {
		res.Busy[i] = w.execSum
		res.SeqTime += w.execSum
	}
	return res, nil
}

func (s *sched) anyHeld() bool {
	for _, w := range s.workers {
		if w.alive && len(w.held) > 0 {
			return true
		}
	}
	return false
}

// handleDone folds one completed segment in: timing, local apply,
// broadcast to the other workers, dataflow bookkeeping, next grants.
// A done that is not for the oldest segment its worker holds — which
// covers every malformed header, since a grant never is — is refused
// before anything is applied.
func (s *sched) handleDone(w *wstate, payload []byte) error {
	if len(payload) < segHeaderLen+8 {
		return fmt.Errorf("dist: short done frame from worker %d", w.id)
	}
	op, lo, hi, seqNo := getSegHeader(payload)
	if len(w.held) == 0 || w.held[0].seg != (seg{op, lo, hi, seqNo}) {
		return fmt.Errorf("dist: worker %d completed segment seq %d, which is not the one it is running", w.id, seqNo)
	}
	exec := float64(getU64(payload[segHeaderLen:])) / 1e9
	blob := payload[segHeaderLen+8:]
	started := w.held[0].sent
	if w.lastDone.After(started) {
		// The grant waited behind the worker's previous segment; that
		// wait is the credit working, not communication.
		started = w.lastDone
	}
	w.held = w.held[1:]
	w.execSum += exec
	s.ops[op].stats.ObserveChunk(lo, hi-lo, exec)

	now := time.Now()
	sentRel := started.Sub(s.t0).Seconds()
	recvRel := now.Sub(s.t0).Seconds()
	c := max(recvRel-sentRel-exec, 0)
	s.comm += c
	if !w.lastDone.IsZero() {
		// A worker's first answer waits for the process to wake up, which
		// is no part of what a grant costs.
		s.overhead.Add(c)
	}
	w.lastDone = now
	s.commBytes += int64(len(blob))
	s.rec.Msg(w.id, op, lo, hi-lo, int64(len(blob)), sentRel, recvRel, exec)
	s.rec.Chunk(w.id, op, lo, hi-lo, recvRel-exec, recvRel, false)

	// Install the results into the coordinator's own memory image and
	// relay them to every other live worker. FIFO per socket orders the
	// block ahead of any later grant that depends on it.
	if len(blob) > 0 {
		if apply := s.f.Spec(op).Apply; apply != nil {
			apply(lo, hi, blob)
		}
		var hdr [segHeaderLen]byte
		putSegHeader(hdr[:], op, lo, hi, 0)
		for _, other := range s.workers {
			if !other.alive || other.id == w.id {
				continue
			}
			o := other
			if err := s.write(o, func() error { return writeFrame(o.proc.conn, mBlock, hdr[:], blob) }); err != nil {
				if derr := s.workerDied(o.id, "block write failed"); derr != nil {
					return derr
				}
			}
		}
	}

	// The coordinator grants by polling Enabled: Complete only records.
	old := s.f.Prefix(op)
	s.f.Complete(op, lo, hi, nil)
	if pfx := s.f.Prefix(op); pfx > old {
		s.rec.Gate(w.id, op, old, pfx, recvRel)
	}
	s.grants++
	s.dispatchAll()
	return nil
}

// workerDied removes a worker: kill the process for certain, re-queue
// every segment it held for the survivors, and fail the run if nobody
// is left.
func (s *sched) workerDied(id int, why string) error {
	w := s.workers[id]
	if !w.alive {
		return nil
	}
	w.alive = false
	s.live--
	w.proc.conn.Close()
	if w.proc.cmd != nil && w.proc.cmd.Process != nil {
		w.proc.cmd.Process.Kill()
	}
	now := time.Since(s.t0).Seconds()
	s.rec.Fault(len(s.workers), id, 0, now)
	if s.live == 0 {
		return fmt.Errorf("dist: all %d workers died (last: worker %d, %s)", len(s.workers), id, why)
	}
	for _, h := range w.held {
		s.regrants = append(s.regrants, h.seg)
		s.rec.Retry(len(s.workers), id, h.op, h.lo, h.hi-h.lo, now)
	}
	w.held = nil
	s.dispatchAll()
	return nil
}

// dispatchAll grants segments breadth-first: no worker gets a second
// segment before every live worker that can take one has a first.
func (s *sched) dispatchAll() {
	for depth := 0; depth < credit; depth++ {
		for _, w := range s.workers {
			if !w.alive || len(w.held) != depth {
				continue
			}
			sg, ok := s.nextSegment()
			if !ok {
				return
			}
			s.grant(w, sg)
		}
	}
}

// grant sends one segment to a worker (re-queueing it if the write
// fails and the worker turns out dead).
func (s *sched) grant(w *wstate, sg seg) {
	var buf [segHeaderLen]byte
	putSegHeader(buf[:], sg.op, sg.lo, sg.hi, sg.seq)
	w.held = append(w.held, held{sg, time.Now()})
	if err := s.write(w, func() error { return writeFrame(w.proc.conn, mGrant, buf[:]) }); err != nil {
		s.workerDied(w.id, "grant write failed")
	}
}

// nextSegment carves the next grantable segment: re-issues first (a
// dead worker's segments were already dataflow-legal), then a fresh
// chunk of the first enabled operator in topological order.
func (s *sched) nextSegment() (seg, bool) {
	if len(s.regrants) > 0 {
		sg := s.regrants[0]
		s.regrants = s.regrants[1:]
		sg.seq = s.nextSeq()
		return sg, true
	}
	for op := range s.ops {
		st := &s.ops[op]
		hiLimit := s.f.Enabled(op)
		if st.next >= hiLimit {
			continue
		}
		hi := min(st.next+s.chunkSize(st, s.f.N(op)), hiLimit)
		sg := seg{op: op, lo: st.next, hi: hi, seq: s.nextSeq()}
		st.next = hi
		return sg, true
	}
	return seg{}, false
}

func (s *sched) nextSeq() int {
	s.seq++
	return s.seq
}

// chunkSize picks the grant granularity. ModeStatic mirrors the other
// backends' fixed block decomposition (one block per live worker,
// sized when the operator first becomes grantable). The adaptive modes
// size a grant by TAPER from the operator's measured task times — the
// same NextChunk/ScaleChunk pair native.runSegment calls, which before
// there are samples is TAPER's first-batch rule — and never below the
// grain that amortises a grant: grainOverheads times the run's mean
// measured per-grant overhead, in tasks of this operator's measured
// mean time. What is left of an operator below that grain goes out as
// one grant.
func (s *sched) chunkSize(st *opState, n int) int {
	live := max(s.live, 1)
	if s.mode == rts.ModeStatic {
		if st.block == 0 {
			st.block = (n + live - 1) / live
		}
		return st.block
	}
	chunk := s.taper.NextChunk(n-st.next, live, st.stats)
	chunk = s.taper.ScaleChunk(chunk, st.next, st.stats)
	if mu := st.stats.Global.Mean(); mu > 0 && s.overhead.N() > 0 {
		floor := grainOverheads * s.overhead.Mean() / mu
		chunk = max(chunk, int(math.Ceil(floor)))
	}
	return max(chunk, 1)
}
