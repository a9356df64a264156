package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"orchestra/internal/delirium"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
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

// distSupported: fault plans are the point (crash is a real SIGKILL);
// the chain policy is trivially satisfied (segments are delivered by
// message, nothing is cache-chained); Pin and Labels would have to act
// inside the worker processes and are not implemented.
var distSupported = rts.Supported{Chain: true, Fault: true}

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

// opState is the coordinator's grant state for one operator; readiness
// lives in the Frontier.
type opState struct {
	next  int // lowest never-granted task index
	block int // static mode: fixed block size, set at first grant
}

// wstate is the coordinator's view of one worker process.
type wstate struct {
	id       int
	conn     net.Conn
	cmd      *exec.Cmd
	alive    bool
	busy     *seg
	grantT   time.Time
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
	workers  []*wstate
	regrants []seg
	msgCh    chan wmsg
	stop     chan struct{}
	rec      *obs.Recorder
	t0       time.Time

	seq  int
	live int

	// result accumulators
	grants    int
	msgsSent  int
	msgsRecv  int
	comm      float64
	commBytes int64
}

// Run implements rts.Backend: fork opts.Processors worker processes,
// ship them the graph and the name-level binding, and self-schedule
// segments over the sockets until the graph completes — re-issuing the
// segments of any worker that dies mid-run to the survivors.
func (b Backend) Run(g *delirium.Graph, bound *rts.Bound, opts rts.RunOpts) (trace.Result, error) {
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

	// Build the scheduling state from the coordinator's own Bound —
	// the same specs the workers will reconstruct from the binding.
	// Pipelined edges deliver every prefix advance (batch 1): a grant
	// already costs a message, so there is nothing to amortise.
	f, err := rts.NewFrontier(g, bound.Spec, opts.Mode == rts.ModeSplit, nil, rts.Limits{})
	if err != nil {
		return trace.Result{}, err
	}
	names := make([]string, f.Len())
	s := &sched{g: g, opts: opts, mode: opts.Mode, f: f, ops: make([]opState, f.Len()), msgCh: make(chan wmsg, 4*p+16), stop: make(chan struct{})}
	// Readers block on msgCh sends; the stop channel releases them when
	// Run stops consuming. It must stay open through the sign-off
	// collection below, or a reader racing to deliver its mBye would
	// exit on stop and drop the frame.
	defer close(s.stop)
	for i := range names {
		names[i] = f.Name(i)
	}
	if opts.Sink != nil {
		s.rec = obs.NewRecorder("dist", "s", names, p+1)
	}

	// One socket, p forked self-executions of this binary.
	dir, err := os.MkdirTemp("", "orchdist")
	if err != nil {
		return trace.Result{}, err
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "coord.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return trace.Result{}, err
	}
	defer ln.Close()

	bin := b.Bin
	if bin == "" {
		if bin, err = os.Executable(); err != nil {
			return trace.Result{}, fmt.Errorf("dist: resolving worker binary: %w", err)
		}
	}
	cmds := make([]*exec.Cmd, p)
	defer func() {
		for _, c := range cmds {
			if c != nil && c.Process != nil {
				c.Process.Kill()
				c.Wait()
			}
		}
	}()
	for i := 0; i < p; i++ {
		cmd := exec.Command(bin)
		cmd.Env = append(os.Environ(),
			EnvSocket+"="+sock,
			fmt.Sprintf("%s=%d", EnvWorker, i))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return trace.Result{}, fmt.Errorf("dist: forking worker %d: %w", i, err)
		}
		cmds[i] = cmd
	}

	// Handshake: accept each connection, read its hello to learn which
	// worker it is, ship the job.
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
	s.workers = make([]*wstate, p)
	if ul, ok := ln.(*net.UnixListener); ok {
		ul.SetDeadline(time.Now().Add(15 * time.Second))
	}
	for i := 0; i < p; i++ {
		conn, err := ln.Accept()
		if err != nil {
			return trace.Result{}, fmt.Errorf("dist: waiting for workers (%d/%d connected): %w", i, p, err)
		}
		br := bufio.NewReaderSize(conn, 1<<16)
		typ, payload, err := readFrame(br)
		if err != nil || typ != mHello {
			conn.Close()
			return trace.Result{}, fmt.Errorf("dist: bad hello from worker connection: %v", err)
		}
		var hello helloMsg
		if err := json.Unmarshal(payload, &hello); err != nil {
			conn.Close()
			return trace.Result{}, err
		}
		id := hello.Worker
		if id < 0 || id >= p || s.workers[id] != nil {
			conn.Close()
			return trace.Result{}, fmt.Errorf("dist: unexpected worker id %d", id)
		}
		w := &wstate{id: id, conn: conn, cmd: cmds[id], alive: true, lastSeen: time.Now()}
		s.workers[id] = w
		if err := s.write(w, func() error { return writeJSON(conn, mJob, job) }); err != nil {
			return trace.Result{}, fmt.Errorf("dist: sending job to worker %d: %w", id, err)
		}
		go s.reader(w, br)
	}
	s.live = p

	// All workers must resolve the binding before scheduling starts: a
	// registry mismatch (which self-execution should make impossible)
	// or a kernel construction error surfaces here.
	oks := 0
	okDeadline := time.After(30 * time.Second)
	for oks < p {
		select {
		case m := <-s.msgCh:
			if m.err != nil {
				return trace.Result{}, fmt.Errorf("dist: worker %d died before accepting the job: %v", m.w, m.err)
			}
			switch m.typ {
			case mJobOK:
				var ok jobOKMsg
				if err := json.Unmarshal(m.payload, &ok); err != nil {
					return trace.Result{}, err
				}
				if ok.Err != "" {
					return trace.Result{}, fmt.Errorf("dist: worker %d rejected the job: %s", m.w, ok.Err)
				}
				s.workers[m.w].lastSeen = time.Now()
				oks++
			case mHeartbeat:
				s.workers[m.w].lastSeen = time.Now()
			default:
				return trace.Result{}, fmt.Errorf("dist: unexpected frame %d before job-ok", m.typ)
			}
		case <-okDeadline:
			return trace.Result{}, fmt.Errorf("dist: timed out waiting for workers to accept the job (%d/%d)", oks, p)
		}
	}

	res, runErr := s.execute(timeout)
	if runErr != nil {
		return trace.Result{}, runErr
	}

	// Finish: collect sign-offs and check every survivor's memory
	// image digests bitwise-identical to the coordinator's own (the
	// coordinator applied every data block locally).
	localDigest, hasDigest := bound.Digest()
	for _, w := range s.workers {
		if !w.alive {
			continue
		}
		s.write(w, func() error { return writeFrame(w.conn, mFinish, nil) })
	}
	byeDeadline := time.After(10 * time.Second)
	want := s.live
	for want > 0 {
		select {
		case m := <-s.msgCh:
			if m.err != nil {
				w := s.workers[m.w]
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
					return trace.Result{}, err
				}
				if bye.Err != "" {
					return trace.Result{}, fmt.Errorf("dist: worker %d failed: %s", m.w, bye.Err)
				}
				if hasDigest && bye.Digest != "" && bye.Digest != localDigest {
					return trace.Result{}, fmt.Errorf("dist: worker %d digest %s diverges from coordinator %s", m.w, bye.Digest, localDigest)
				}
				if w := s.workers[m.w]; w.alive {
					w.alive = false
					want--
				}
			case mHeartbeat, mDone:
				// Late frames from the run are harmless here.
			}
		case <-byeDeadline:
			return trace.Result{}, fmt.Errorf("dist: timed out waiting for %d worker sign-offs", want)
		}
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

// write performs one socket write with a deadline, marking the worker
// dead (without re-issue — the caller handles that) on failure.
func (s *sched) write(w *wstate, f func() error) error {
	w.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	err := f()
	w.conn.SetWriteDeadline(time.Time{})
	if err == nil {
		s.msgsSent++
	}
	return err
}

// reader pumps one worker's frames into the scheduler's channel. A
// read error (EOF for a killed process) is delivered as a death
// notice; per-socket FIFO means every frame the worker managed to send
// arrives first.
func (s *sched) reader(w *wstate, br *bufio.Reader) {
	for {
		typ, payload, err := readFrame(br)
		m := wmsg{w: w.id, typ: typ, payload: payload, err: err}
		select {
		case s.msgCh <- m:
		case <-s.stop:
			return
		}
		if err != nil {
			return
		}
	}
}

// execute is the scheduling loop: grant segments to idle workers,
// fold completions in, gate pipelined consumers on producer prefixes,
// and survive worker deaths by re-issuing their segments.
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

// handleDone folds one completed segment in: timing, local apply,
// broadcast to the other workers, dataflow bookkeeping, next grant.
func (s *sched) handleDone(w *wstate, payload []byte) error {
	if len(payload) < segHeaderLen+8 {
		return fmt.Errorf("dist: short done frame from worker %d", w.id)
	}
	op, lo, hi, seqNo := getSegHeader(payload)
	exec := float64(getU64(payload[segHeaderLen:])) / 1e9
	blob := payload[segHeaderLen+8:]
	if w.busy == nil || *w.busy != (seg{op, lo, hi, seqNo}) {
		// A frame for a segment this worker does not own; cannot happen
		// with live workers (one outstanding grant each), but be safe
		// against protocol confusion.
		return fmt.Errorf("dist: worker %d completed segment seq %d it does not own", w.id, seqNo)
	}
	w.busy = nil
	w.execSum += exec

	now := time.Now()
	sentRel := w.grantT.Sub(s.t0).Seconds()
	recvRel := now.Sub(s.t0).Seconds()
	if c := recvRel - sentRel - exec; c > 0 {
		s.comm += c
	}
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
		hdr := make([]byte, segHeaderLen+len(blob))
		putSegHeader(hdr, op, lo, hi, 0)
		copy(hdr[segHeaderLen:], blob)
		for _, other := range s.workers {
			if !other.alive || other.id == w.id {
				continue
			}
			o := other
			if err := s.write(o, func() error { return writeFrame(o.conn, mBlock, hdr) }); err != nil {
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
// its outstanding segment for the survivors, and fail the run if
// nobody is left.
func (s *sched) workerDied(id int, why string) error {
	w := s.workers[id]
	if !w.alive {
		return nil
	}
	w.alive = false
	s.live--
	w.conn.Close()
	if w.cmd != nil && w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
	now := time.Since(s.t0).Seconds()
	s.rec.Fault(len(s.workers), id, 0, now)
	if s.live == 0 {
		return fmt.Errorf("dist: all %d workers died (last: worker %d, %s)", len(s.workers), id, why)
	}
	if w.busy != nil {
		sg := *w.busy
		w.busy = nil
		s.regrants = append(s.regrants, sg)
		s.rec.Retry(len(s.workers), id, sg.op, sg.lo, sg.hi-sg.lo, now)
	}
	s.dispatchAll()
	return nil
}

// dispatchAll grants a segment to every idle live worker that can
// take one. It also detects the stuck state (nothing running, nothing
// grantable, graph incomplete), which would otherwise hang the loop.
func (s *sched) dispatchAll() {
	for _, w := range s.workers {
		if !w.alive || w.busy != nil {
			continue
		}
		sg, ok := s.nextSegment()
		if !ok {
			break
		}
		s.grant(w, sg)
	}
}

// grant sends one segment to a worker (re-queueing it if the write
// fails and the worker turns out dead).
func (s *sched) grant(w *wstate, sg seg) {
	var buf [segHeaderLen]byte
	putSegHeader(buf[:], sg.op, sg.lo, sg.hi, sg.seq)
	w.grantT = time.Now()
	segCopy := sg
	w.busy = &segCopy
	if err := s.write(w, func() error { return writeFrame(w.conn, mGrant, buf[:]) }); err != nil {
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
// sized when the operator first becomes grantable); the adaptive modes
// use guided self-scheduling — half the fair share of what remains —
// whose chunk count stays O(p·log n) while the final chunks shrink
// enough to balance stragglers.
func (s *sched) chunkSize(st *opState, n int) int {
	live := s.live
	if live < 1 {
		live = 1
	}
	if s.mode == rts.ModeStatic {
		if st.block == 0 {
			st.block = (n + live - 1) / live
		}
		return st.block
	}
	chunk := (n - st.next) / (2 * live)
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}
