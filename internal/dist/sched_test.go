package dist

import (
	"bufio"
	"encoding/binary"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"orchestra/internal/delirium"
	"orchestra/internal/rts"
	taskop "orchestra/internal/sched"
)

// The coordinator's scheduling state is testable without processes: a
// sched built by newSched over in-memory connections, with the test
// playing the workers on the other ends.

// image is a two-operator memory image for hand-built runs: a -> b over
// a plain edge, n tasks each, task i of operator k owning cell [k][i].
// applied counts the Apply calls per cell.
type image struct {
	n       int
	applied [2][]int
}

func newImage(n int) *image {
	return &image{n: n, applied: [2][]int{make([]int, n), make([]int, n)}}
}

func (im *image) graph(t testing.TB) *delirium.Graph {
	t.Helper()
	g := delirium.NewGraph("hand")
	for _, name := range []string{"a", "b"} {
		if err := g.AddNode(&delirium.Node{Name: name, Kind: delirium.Par}); err != nil {
			t.Fatal(err)
		}
	}
	g.AddEdge(&delirium.Edge{From: "a", To: "b"})
	return g
}

func (im *image) bind(name string) rts.OpSpec {
	k := 0
	if name == "b" {
		k = 1
	}
	return rts.OpSpec{
		Op: taskop.Op{Name: name, N: im.n, Time: func(int) float64 { return 1 }},
		Apply: func(lo, hi int, blob []byte) {
			for i := lo; i < hi; i++ {
				im.applied[k][i]++
			}
		},
	}
}

// handSched builds the coordinator for im over the given connections,
// one worker each, all alive and accepted.
func handSched(t testing.TB, im *image, conns []net.Conn) *sched {
	t.Helper()
	p := len(conns)
	s, err := newSched(im.graph(t), im.bind, rts.RunOpts{Processors: p, Mode: rts.ModeTaper}, p)
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range conns {
		s.workers[id] = &wstate{id: id, proc: &proc{conn: c, br: bufio.NewReader(c)}, ok: true, alive: true, lastSeen: time.Now()}
	}
	s.live = p
	return s
}

// pipeSched is handSched over net.Pipe with the readers started; the
// second result is the workers' ends.
func pipeSched(t *testing.T, im *image, p int) (*sched, []net.Conn) {
	t.Helper()
	conns, peers := make([]net.Conn, p), make([]net.Conn, p)
	for i := range conns {
		conns[i], peers[i] = net.Pipe()
	}
	s := handSched(t, im, conns)
	for _, w := range s.workers {
		go s.reader(w.id, w.proc.br)
	}
	t.Cleanup(func() {
		close(s.stop)
		for i := range conns {
			conns[i].Close()
			peers[i].Close()
		}
	})
	return s, peers
}

// discardConn is a connection that accepts every write and never has
// anything to read: a worker that listens and says nothing.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }
func (discardConn) Close() error                     { return nil }

// doneFrame is the payload of a done for sg with one byte of blob per
// task (the blob's content is the kernel's business, not the protocol's).
func doneFrame(sg seg) []byte {
	out := make([]byte, segHeaderLen+8+max(sg.hi-sg.lo, 0))
	putSegHeader(out, sg.op, sg.lo, sg.hi, sg.seq)
	binary.BigEndian.PutUint64(out[segHeaderLen:], 1000)
	return out
}

// playWorker serves one end of a pipe: it records every grant and
// answers it at once — unless hold is positive, in which case it answers
// nothing and hangs up once it holds that many grants.
func playWorker(conn net.Conn, hold int, mu *sync.Mutex, granted *[]seg) {
	br := bufio.NewReader(conn)
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			return
		}
		if typ != mGrant {
			continue
		}
		op, lo, hi, seq := getSegHeader(payload)
		sg := seg{op, lo, hi, seq}
		mu.Lock()
		*granted = append(*granted, sg)
		held := len(*granted)
		mu.Unlock()
		if hold > 0 {
			if held == hold {
				conn.Close()
				return
			}
			continue
		}
		if writeFrame(conn, mDone, doneFrame(sg)) != nil {
			return
		}
	}
}

// TestCreditDeathReissuesBoth: a worker that dies holding its full
// credit of two segments has both re-issued, each exactly once, and the
// run's image and counts come out as if nobody had died.
func TestCreditDeathReissuesBoth(t *testing.T) {
	const n = 4096
	im := newImage(n)
	s, peers := pipeSched(t, im, 2)
	var mu sync.Mutex
	var lost, served []seg
	go playWorker(peers[0], credit, &mu, &lost)
	go playWorker(peers[1], 0, &mu, &served)

	res, err := s.execute()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lost) != credit {
		t.Fatalf("worker 0 died holding %d segments, want %d", len(lost), credit)
	}
	for _, l := range lost {
		again := 0
		for _, sg := range served {
			if sg.op == l.op && sg.lo == l.lo && sg.hi == l.hi {
				again++
			}
		}
		if again != 1 {
			t.Errorf("lost segment op %d [%d,%d) re-issued %d times, want 1", l.op, l.lo, l.hi, again)
		}
	}
	// The survivor's segments tile both operators exactly once.
	sort.Slice(served, func(i, j int) bool {
		if served[i].op != served[j].op {
			return served[i].op < served[j].op
		}
		return served[i].lo < served[j].lo
	})
	at := [2]int{}
	for _, sg := range served {
		if sg.lo != at[sg.op] {
			t.Fatalf("op %d: segment [%d,%d) follows task %d", sg.op, sg.lo, sg.hi, at[sg.op])
		}
		at[sg.op] = sg.hi
	}
	if at != [2]int{n, n} {
		t.Fatalf("survivor covered %v tasks, want %d of each", at, n)
	}
	appliedOnce(t, im)
	if res.Chunks != len(served) {
		t.Errorf("Chunks = %d, want the %d segments that completed", res.Chunks, len(served))
	}
	if s.workers[0].alive || len(s.workers[0].held) != 0 || len(s.regrants) != 0 {
		t.Errorf("dead worker still alive=%v holding %d, %d re-issues pending", s.workers[0].alive, len(s.workers[0].held), len(s.regrants))
	}
}

// TestCreditFillsBreadthFirst: no worker is granted a second segment
// before every live worker has a first, and nobody gets a third.
func TestCreditFillsBreadthFirst(t *testing.T) {
	im := newImage(4096)
	s := handSched(t, im, []net.Conn{discardConn{}, discardConn{}, discardConn{}})
	s.t0 = time.Now()
	s.dispatchAll()
	var seqs [][]int
	for _, w := range s.workers {
		var ws []int
		for _, h := range w.held {
			ws = append(ws, h.seq)
		}
		seqs = append(seqs, ws)
	}
	want := [][]int{{1, 4}, {2, 5}, {3, 6}}
	for i := range want {
		if len(seqs[i]) != credit || seqs[i][0] != want[i][0] || seqs[i][1] != want[i][1] {
			t.Fatalf("grant order %v, want %v", seqs, want)
		}
	}
	s.dispatchAll()
	for _, w := range s.workers {
		if len(w.held) != credit {
			t.Fatalf("worker %d holds %d segments after a second dispatch", w.id, len(w.held))
		}
	}
}

// TestStallIsAnError: nobody holds a grant, nothing is grantable and
// tasks are outstanding — heartbeats would keep such a run alive until
// the caller's context died, so execute must say so itself.
func TestStallIsAnError(t *testing.T) {
	const n = 64
	im := newImage(n)
	s, _ := pipeSched(t, im, 2)
	// Everything was handed out, nothing came back, nobody holds it.
	for op := range s.ops {
		s.ops[op].next = n
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.execute()
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || err.Error() != "dist: stalled with 128 tasks outstanding" {
			t.Fatalf("execute returned %v, want the stall error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("execute hangs in the stuck state")
	}
}

// TestHandshake drives the one-connection handshake over net.Pipe.
func TestHandshake(t *testing.T) {
	hello := func(id int) func(net.Conn) {
		return func(c net.Conn) { writeJSON(c, mHello, helloMsg{Worker: id, PID: 4000 + id}) }
	}
	cases := []struct {
		name    string
		peer    func(net.Conn) // nil: says nothing
		pending map[int]*proc
		wantErr string
	}{
		{"silent peer", nil, map[int]*proc{0: {}}, "reading hello"},
		{"wrong frame type", func(c net.Conn) { writeFrame(c, mJobOK, []byte("{}")) }, map[int]*proc{0: {}}, "not hello"},
		{"out-of-range id", hello(7), map[int]*proc{0: {}, 1: {}}, "unexpected worker id 7"},
		{"negative id", hello(-1), map[int]*proc{0: {}}, "unexpected worker id -1"},
		{"duplicate id", hello(1), map[int]*proc{0: {}, 1: {conn: discardConn{}}}, "unexpected worker id 1"},
		{"good", hello(1), map[int]*proc{0: {}, 1: {}}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			conn, peer := net.Pipe()
			defer conn.Close()
			defer peer.Close()
			if c.peer != nil {
				go c.peer(peer)
			}
			t0 := time.Now()
			err := handshake(conn, t0.Add(100*time.Millisecond), c.pending)
			if time.Since(t0) > 2*time.Second {
				t.Fatalf("handshake took %v against a 100 ms budget", time.Since(t0))
			}
			if c.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				if p := c.pending[1]; p.conn != conn || p.br == nil || p.pid != 4001 {
					t.Fatalf("hello did not attach: %+v", p)
				}
				// The budget is cleared: a later read waits.
				got := make(chan error, 1)
				go func() { _, _, err := readFrame(c.pending[1].br); got <- err }()
				select {
				case err := <-got:
					t.Fatalf("read after the handshake returned %v instead of waiting", err)
				case <-time.After(200 * time.Millisecond):
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %v, want one containing %q", err, c.wantErr)
			}
		})
	}
}

// slowWorker serves one end of a pipe like playWorker, but holds its
// first grant for hold before answering it. With beat set it sends a
// heartbeat every heartbeatPeriod for as long as the pipe is open, as a
// real worker does; without, it never writes anything but its answers,
// so with hold longer than the run it is alive but frozen. It keeps
// reading either way: the pipe is synchronous, and a worker that
// stopped reading would fail the coordinator's block writes, not its
// watchdog.
func slowWorker(conn net.Conn, hold time.Duration, beat bool, mu *sync.Mutex, granted *[]seg) {
	var wmu sync.Mutex
	send := func(typ byte, payload ...[]byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		return writeFrame(conn, typ, payload...)
	}
	if beat {
		go func() {
			tick := time.NewTicker(heartbeatPeriod)
			defer tick.Stop()
			for range tick.C {
				if send(mHeartbeat) != nil {
					return
				}
			}
		}()
	}
	// A worker holds at most credit unanswered grants, so the reader
	// never waits on the answering loop.
	grants, gone := make(chan seg, credit), make(chan struct{})
	go func() {
		defer close(gone)
		br := bufio.NewReader(conn)
		for {
			typ, payload, err := readFrame(br)
			if err != nil {
				return
			}
			if typ != mGrant {
				continue
			}
			op, lo, hi, seq := getSegHeader(payload)
			sg := seg{op, lo, hi, seq}
			mu.Lock()
			*granted = append(*granted, sg)
			mu.Unlock()
			grants <- sg
		}
	}()
	for {
		var sg seg
		select {
		case sg = <-grants:
		case <-gone:
			return
		}
		if hold > 0 {
			select {
			case <-time.After(hold):
			case <-gone:
				return
			}
			hold = 0
		}
		if send(mDone, doneFrame(sg)) != nil {
			return
		}
	}
}

// executeWithin runs s.execute and fails the test if it takes longer
// than limit, instead of hanging the test binary.
func executeWithin(t *testing.T, s *sched, limit time.Duration) {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := s.execute()
		errc <- err
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(limit):
		t.Fatalf("execute still running after %v", limit)
	}
}

// appliedOnce fails the test unless every cell of im was applied
// exactly once.
func appliedOnce(t *testing.T, im *image) {
	t.Helper()
	for k := range im.applied {
		for i, c := range im.applied[k] {
			if c != 1 {
				t.Fatalf("cell [%d][%d] applied %d times", k, i, c)
			}
		}
	}
}

// TestSilentWorkerDeclaredDead: a worker that takes its grants and goes
// silent without hanging up is declared dead by the watchdog once it has
// said nothing for silenceTimeout; what it held is re-granted to the
// survivor, and every cell is applied exactly once.
func TestSilentWorkerDeclaredDead(t *testing.T) {
	const n = 4096
	im := newImage(n)
	s, peers := pipeSched(t, im, 2)
	var mu sync.Mutex
	var frozen, served []seg
	go slowWorker(peers[0], time.Hour, false, &mu, &frozen)
	go slowWorker(peers[1], 0, true, &mu, &served)

	t0 := time.Now()
	executeWithin(t, s, 4*silenceTimeout)
	if took := time.Since(t0); took < silenceTimeout {
		t.Errorf("run finished in %v, before the %v silence timeout", took, silenceTimeout)
	}
	if s.workers[0].alive || !s.workers[1].alive {
		t.Fatalf("alive = %v, %v; want the silent worker dead and the survivor alive", s.workers[0].alive, s.workers[1].alive)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(frozen) == 0 {
		t.Fatal("the silent worker was never granted anything")
	}
	for _, f := range frozen {
		again := 0
		for _, sg := range served {
			if sg.op == f.op && sg.lo == f.lo && sg.hi == f.hi {
				again++
			}
		}
		if again != 1 {
			t.Errorf("frozen segment op %d [%d,%d) re-granted %d times, want 1", f.op, f.lo, f.hi, again)
		}
	}
	appliedOnce(t, im)
}

// TestHeartbeatKeepsWorkerAlive: a stall is a delay. A worker that sends
// heartbeats through a segment longer than silenceTimeout is not
// declared dead; the run waits for it and nothing is re-granted.
func TestHeartbeatKeepsWorkerAlive(t *testing.T) {
	const n = 4096
	im := newImage(n)
	s, peers := pipeSched(t, im, 2)
	var mu sync.Mutex
	var slow, served []seg
	hold := silenceTimeout + silenceTimeout/2
	go slowWorker(peers[0], hold, true, &mu, &slow)
	go slowWorker(peers[1], 0, true, &mu, &served)

	t0 := time.Now()
	executeWithin(t, s, 4*silenceTimeout)
	if took := time.Since(t0); took < hold {
		t.Errorf("run finished in %v, before the slow worker's %v segment", took, hold)
	}
	if !s.workers[0].alive || !s.workers[1].alive {
		t.Fatalf("alive = %v, %v; a heartbeating worker must not be declared dead", s.workers[0].alive, s.workers[1].alive)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, a := range slow {
		for _, b := range served {
			if a.op == b.op && a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("op %d: segment [%d,%d) granted to both workers ([%d,%d))", a.op, a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
	appliedOnce(t, im)
}
