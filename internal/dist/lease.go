package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"
)

// proc is one worker process and the socket to it. A proc that signed
// off cleanly outlives the Run that forked it: it waits in the idle set
// for the next Run of the same binary, which leases it and skips the
// fork, the listener and the handshake.
type proc struct {
	bin   string
	cmd   *exec.Cmd
	conn  net.Conn
	br    *bufio.Reader
	pid   int
	since time.Time // when it went idle
}

// Retirement is the coordinator's decision alone, so a lease cannot
// race an expiry: a worker idle for idleMax, or beyond the idleKeep
// most recently used, has its socket closed and exits on the EOF. An
// idle worker whose coordinator exits reads the same EOF.
const (
	idleMax  = 5 * time.Second
	idleKeep = 8
)

// idle is the package's one set of leasable workers, least recently
// used first. timer is armed while the set is not empty.
var idle idleSet

type idleSet struct {
	sync.Mutex
	procs []*proc
	timer *time.Timer
}

// lease takes up to n idle workers of bin out of the set, most recently
// used first. Whether they are still alive shows when the job is sent.
func lease(bin string, n int) []*proc {
	idle.Lock()
	defer idle.Unlock()
	var out []*proc
	for i := len(idle.procs) - 1; i >= 0 && len(out) < n; i-- {
		if p := idle.procs[i]; p.bin == bin {
			out = append(out, p)
			idle.procs = append(idle.procs[:i], idle.procs[i+1:]...)
		}
	}
	return out
}

// release puts signed-off workers into the idle set.
func release(ps []*proc) {
	if len(ps) == 0 {
		return
	}
	now := time.Now()
	idle.Lock()
	for _, p := range ps {
		p.since = now
	}
	idle.procs = append(idle.procs, ps...)
	if idle.timer == nil {
		idle.timer = time.AfterFunc(idleMax, retireIdle)
	}
	over := idle.trim(now)
	idle.Unlock()
	retire(over)
}

// retireIdle is the timer's sweep; it re-arms for the oldest survivor.
func retireIdle() {
	now := time.Now()
	idle.Lock()
	over := idle.trim(now)
	idle.timer = nil
	if len(idle.procs) > 0 {
		idle.timer = time.AfterFunc(idle.procs[0].since.Add(idleMax).Sub(now)+time.Millisecond, retireIdle)
	}
	idle.Unlock()
	retire(over)
}

// trim removes and returns the workers past either bound. The caller
// holds the lock.
func (s *idleSet) trim(now time.Time) (over []*proc) {
	keep := s.procs[:0]
	for i, p := range s.procs {
		if now.Sub(p.since) >= idleMax || len(s.procs)-i > idleKeep {
			over = append(over, p)
		} else {
			keep = append(keep, p)
		}
	}
	s.procs = keep
	return over
}

// retire closes each worker's socket, which the worker reads as its
// order to exit, and reaps it; one that does not exit is killed.
func retire(ps []*proc) {
	for _, p := range ps {
		p.conn.Close()
		go func(p *proc) {
			t := time.AfterFunc(2*time.Second, func() { p.cmd.Process.Kill() })
			p.cmd.Wait()
			t.Stop()
		}(p)
	}
}

// kill ends the process for certain and reaps it.
func (p *proc) kill() {
	if p.conn != nil {
		p.conn.Close()
	}
	if p.cmd != nil && p.cmd.Process != nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

// spawner forks workers for one Run: a socket in a temporary directory
// that exists only while the Run is short of leased workers.
type spawner struct {
	bin  string
	dir  string
	sock string
	ln   net.Listener
}

func (sp *spawner) open() error {
	if sp.ln != nil {
		return nil
	}
	dir, err := os.MkdirTemp("", "orchdist")
	if err != nil {
		return err
	}
	sp.dir, sp.sock = dir, filepath.Join(dir, "coord.sock")
	sp.ln, err = net.Listen("unix", sp.sock)
	return err
}

func (sp *spawner) close() {
	if sp.ln != nil {
		sp.ln.Close()
	}
	if sp.dir != "" {
		os.RemoveAll(sp.dir)
	}
}

// handshakeBudget bounds how long forked workers may take to connect
// and introduce themselves.
const handshakeBudget = 15 * time.Second

// fork starts one process per id in ids and returns them connected,
// keyed by the id each named in its hello.
func (sp *spawner) fork(ids []int) (procs map[int]*proc, err error) {
	if err := sp.open(); err != nil {
		return nil, err
	}
	procs = make(map[int]*proc, len(ids))
	defer func() {
		if err != nil {
			for _, p := range procs {
				p.kill()
			}
		}
	}()
	for _, id := range ids {
		cmd := exec.Command(sp.bin)
		cmd.Env = append(os.Environ(),
			EnvSocket+"="+sp.sock,
			fmt.Sprintf("%s=%d", EnvWorker, id))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return procs, fmt.Errorf("dist: forking worker %d: %w", id, err)
		}
		procs[id] = &proc{bin: sp.bin, cmd: cmd}
	}
	deadline := time.Now().Add(handshakeBudget)
	if ul, ok := sp.ln.(*net.UnixListener); ok {
		ul.SetDeadline(deadline)
	}
	for i := range ids {
		conn, err := sp.ln.Accept()
		if err != nil {
			return procs, fmt.Errorf("dist: waiting for workers (%d/%d connected): %w", i, len(ids), err)
		}
		if err := handshake(conn, deadline, procs); err != nil {
			conn.Close()
			return procs, err
		}
	}
	return procs, nil
}

// handshake reads one new connection's hello, under the same deadline
// as the accept, and attaches the connection to the process in pending
// that it names. A peer that stays silent, says something else first,
// or names a process that is not pending or already connected is an
// error.
func handshake(conn net.Conn, deadline time.Time, pending map[int]*proc) error {
	conn.SetReadDeadline(deadline)
	br := bufio.NewReaderSize(conn, 1<<16)
	typ, payload, err := readFrame(br)
	if err != nil {
		return fmt.Errorf("dist: reading hello from worker connection: %w", err)
	}
	if typ != mHello {
		return fmt.Errorf("dist: worker connection opened with frame type %d, not hello", typ)
	}
	var hello helloMsg
	if err := json.Unmarshal(payload, &hello); err != nil {
		return fmt.Errorf("dist: bad hello: %w", err)
	}
	p := pending[hello.Worker]
	if p == nil || p.conn != nil {
		return fmt.Errorf("dist: unexpected worker id %d", hello.Worker)
	}
	conn.SetReadDeadline(time.Time{})
	p.conn, p.br, p.pid = conn, br, hello.PID
	return nil
}
