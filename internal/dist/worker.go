package dist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"

	"orchestra/internal/delirium"
	"orchestra/internal/fault"
	"orchestra/internal/rts"
)

// MaybeWorker is the hidden worker mode: when the ORCHDIST_SOCKET
// environment variable is set, the process is a forked dist worker —
// it connects back to the coordinator, serves jobs until the socket
// closes, and exits without ever reaching the caller's own main logic.
// Every program that can act as a dist coordinator calls MaybeWorker
// first thing in main (and test binaries from TestMain, before flag
// parsing), because the coordinator re-executes its own binary to fork
// workers: that is what guarantees the worker's kernel registry is
// bit-for-bit the coordinator's.
func MaybeWorker() {
	sock := os.Getenv(EnvSocket)
	if sock == "" {
		return
	}
	id, err := strconv.Atoi(os.Getenv(EnvWorker))
	if err != nil || id < 0 {
		fmt.Fprintf(os.Stderr, "dist worker: bad %s=%q\n", EnvWorker, os.Getenv(EnvWorker))
		os.Exit(3)
	}
	conn, err := net.Dial("unix", sock)
	if err == nil {
		err = serve(conn, id)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist worker (pid %d): %v\n", os.Getpid(), err)
		os.Exit(1)
	}
	os.Exit(0)
}

// workerConn wraps the worker's socket with the write-side mutex the
// heartbeat goroutine shares with the main loop.
type workerConn struct {
	conn net.Conn
	mu   sync.Mutex
}

func (c *workerConn) send(typ byte, parts ...[]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return writeFrame(c.conn, typ, parts...)
}

func (c *workerConn) sendJSON(typ byte, v any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return writeJSON(c.conn, typ, v)
}

// serve is a worker's life on its connection: hello under the id that
// names the connection, then one job after another. The socket closing
// between jobs is the coordinator retiring the worker, or exiting: the
// worker leaves without a word. Anything else that ends a job ends the
// process with an error.
func serve(conn net.Conn, connID int) error {
	defer conn.Close()
	wc := &workerConn{conn: conn}
	br := bufio.NewReaderSize(conn, 1<<16)
	if err := wc.sendJSON(mHello, helloMsg{Worker: connID, PID: os.Getpid()}); err != nil {
		return err
	}
	for {
		typ, payload, err := readFrame(br)
		if errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("reading job: %w", err)
		}
		if typ != mJob {
			return fmt.Errorf("expected job frame, got type %d", typ)
		}
		if err := serveJob(wc, br, payload); err != nil {
			return err
		}
	}
}

// serveJob runs one job: bind, then execute granted segments until the
// coordinator says finish. Everything the job allocated — the memory
// image above all — is unreachable once it returns.
func serveJob(wc *workerConn, br *bufio.Reader, payload []byte) error {
	var job jobMsg
	if err := json.Unmarshal(payload, &job); err != nil {
		return err
	}
	id := job.Worker

	// Rebuild the run from data alone: decode the graph, resolve the
	// binding against this process's kernel registry. Any failure is
	// reported in job-ok so the coordinator can surface it instead of
	// timing out.
	bound, specs, refuse := bindJob(&job)
	if refuse != "" {
		wc.sendJSON(mJobOK, jobOKMsg{Err: refuse})
		return fmt.Errorf("%s", refuse)
	}
	if err := wc.sendJSON(mJobOK, jobOKMsg{}); err != nil {
		return err
	}

	// The worker's own slice of the fault plan. Crash is a literal
	// SIGKILL — the real thing the PR 5 recovery protocol was built
	// for — so it never returns; stall sleeps; slow stretches segment
	// execution.
	var fx *fault.Exec
	if job.Fault != "" {
		plan, err := fault.Parse(job.Fault)
		if err != nil {
			return fmt.Errorf("fault plan: %w", err)
		}
		fx = fault.NewExec(plan, job.Workers)
	}

	// Heartbeats prove liveness while a long segment computes. A send
	// failure just means the coordinator went away, which the main loop
	// will also notice. The goroutine is joined before bye, so that bye
	// is the last frame of the job.
	hb := job.Heartbeat
	if hb <= 0 {
		hb = 0.05
	}
	stopHB, hbDone := make(chan struct{}), make(chan struct{})
	joinHB := sync.OnceFunc(func() { close(stopHB); <-hbDone })
	defer joinHB()
	go func() {
		defer close(hbDone)
		t := time.NewTicker(time.Duration(hb * float64(time.Second)))
		defer t.Stop()
		for {
			select {
			case <-stopHB:
				return
			case <-t.C:
				if wc.send(mHeartbeat) != nil {
					return
				}
			}
		}
	}()

	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			return fmt.Errorf("reading frame: %w", err)
		}
		switch typ {
		case mBlock:
			if len(payload) < segHeaderLen {
				return fmt.Errorf("short block frame (%d bytes)", len(payload))
			}
			op, lo, hi, _ := getSegHeader(payload)
			if op < 0 || op >= len(specs) {
				return fmt.Errorf("block for unknown op %d", op)
			}
			if specs[op].Apply != nil {
				specs[op].Apply(lo, hi, payload[segHeaderLen:])
			}
		case mGrant:
			if len(payload) < segHeaderLen {
				return fmt.Errorf("short grant frame (%d bytes)", len(payload))
			}
			op, lo, hi, seq := getSegHeader(payload)
			if op < 0 || op >= len(specs) || lo < 0 || hi < lo || hi > specs[op].Op.N {
				return fmt.Errorf("grant out of range: op %d tasks [%d,%d)", op, lo, hi)
			}
			slow := beginOrDie(fx, id)
			start := time.Now()
			spec := &specs[op]
			if spec.Op.TimeRange != nil {
				spec.Op.TimeRange(lo, hi)
			} else {
				for i := lo; i < hi; i++ {
					spec.Op.Time(i)
				}
			}
			if slow > 1 {
				// A slowed worker takes slow× the time: the work is done,
				// stretch the remainder.
				time.Sleep(time.Duration(float64(time.Since(start)) * (slow - 1)))
			}
			execNS := time.Since(start).Nanoseconds()
			var blob []byte
			if spec.Pack != nil {
				blob = spec.Pack(lo, hi)
			}
			var head [segHeaderLen + 8]byte
			putSegHeader(head[:], op, lo, hi, seq)
			putU64(head[segHeaderLen:], uint64(execNS))
			if err := wc.send(mDone, head[:], blob); err != nil {
				return err
			}
		case mFinish:
			var bye byeMsg
			if d, ok := bound.Digest(); ok {
				bye.Digest = d
			}
			joinHB()
			return wc.sendJSON(mBye, bye)
		default:
			return fmt.Errorf("unexpected frame type %d", typ)
		}
	}
}

// bindJob rebuilds the graph and kernels from a job message. A
// non-empty refuse string is the error to report in job-ok.
func bindJob(job *jobMsg) (bound *rts.Bound, specs []rts.OpSpec, refuse string) {
	g, err := delirium.Decode(job.Graph)
	if err != nil {
		return nil, nil, fmt.Sprintf("decoding graph: %v", err)
	}
	bound, err = rts.Bind(g, job.Binding)
	if err != nil {
		return nil, nil, fmt.Sprintf("resolving binding: %v", err)
	}
	specs = make([]rts.OpSpec, len(job.Ops))
	for i, name := range job.Ops {
		if g.Node(name) == nil {
			return nil, nil, fmt.Sprintf("job names unknown op %q", name)
		}
		specs[i] = bound.Spec(name)
	}
	return bound, specs, ""
}

// beginOrDie consults the fault injector at a grant boundary: a crash
// decision is executed as SIGKILL (no deferred cleanup, no flushed
// buffers — exactly what the recovery protocol must survive), stalls
// sleep and re-consult, and the surviving decision's slow factor is
// returned.
func beginOrDie(fx *fault.Exec, id int) (slow float64) {
	for {
		d := fx.Begin(id)
		if d.Crash {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable; Kill does not return an error we could act on
		}
		if d.Stall > 0 {
			time.Sleep(time.Duration(d.Stall * float64(time.Second)))
			continue
		}
		if d.Slow > 0 {
			return d.Slow
		}
		return 1
	}
}

func putU64(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }
func getU64(b []byte) uint64    { return binary.BigEndian.Uint64(b) }
