// Package dist is the distributed shared-nothing backend: a
// coordinator process forks N worker processes connected over
// Unix-domain sockets and drives them through a small length-prefixed
// message protocol. It is the third rts.Backend ("dist") and the
// reproduction's return to the paper's actual machine model — the
// simulator *models* per-message costs on a hypercube, the native
// backend shares one address space, and this backend makes the
// comm/lag/sched terms of rts.FinishEstimate empirical: every segment
// grant is a real socket round trip whose wall-clock cost is measured
// and folded into obs events and trace.Result.
//
// Topology is a coordinator star. Workers never talk to each other;
// the coordinator schedules segments, relays data blocks, tracks
// pipelined prefixes, and detects death (socket EOF for a SIGKILLed
// process, heartbeat timeout for a hung one). Because kernels are
// resolved by name from rts.Kernels on both sides of the socket —
// worker processes re-execute this same binary, so the registries are
// identical — a serializable rts.Binding is all that ships; closures
// never cross the boundary.
//
// # Wire protocol
//
// Every frame is
//
//	u32 payload length (big-endian) | u8 type | payload
//
// and leaves its sender in one write (writeFrame). Control frames
// (hello, job, job-ok, bye) carry JSON payloads; the hot frames (grant,
// done, block, heartbeat) are fixed-layout binary. All integers are
// big-endian.
//
//	hello     worker → coord   JSON {worker, pid}; sent once on connect.
//	                           worker only names the connection among
//	                           the processes one Run forked
//	job       coord → worker   JSON {worker, graph, binding, workers,
//	                           fault, ops}; worker is the id the
//	                           process has for this job
//	job-ok    worker → coord   JSON {err}; binding resolved (or not)
//	grant     coord → worker   op u32, lo u32, hi u32, seq u32:
//	                           execute tasks [lo,hi) of ops[op]
//	done      worker → coord   op u32, lo u32, hi u32, seq u32,
//	                           exec-ns u64, then the Pack()ed blob
//	block     coord → worker   op u32, lo u32, hi u32, then the blob:
//	                           Apply() before reading further frames
//	heartbeat worker → coord   empty; liveness under long computations
//	finish    coord → worker   empty; graph is complete
//	bye       worker → coord   JSON {digest, err}; the job is over
//
// A worker serves jobs until its socket closes: after bye it drops the
// job's memory image and waits for the next job frame, and end of file
// there is its order to exit. Heartbeats run from job-ok to just before
// bye, so nothing follows a bye on the wire and the coordinator's
// reader for the connection ends with it (see lease.go for what happens
// to the process between jobs).
//
// Ordering is per-socket FIFO, which is the protocol's one correctness
// hinge: the coordinator writes every input block a segment needs to a
// worker's socket before the segment's grant, so by the time the
// worker reads the grant its memory image is current — no explicit
// acknowledgement round is needed. A worker may hold a credit of two
// grants, the segment it runs and the next one; it executes and
// answers them in the order they arrived, so a done always names the
// oldest grant its worker holds, and the second grant was, like the
// first, issued only for tasks whose inputs were already on the socket.
package dist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"

	"orchestra/internal/rts"
)

// Frame types.
const (
	mHello byte = 1 + iota
	mJob
	mJobOK
	mGrant
	mDone
	mBlock
	mHeartbeat
	mFinish
	mBye
)

// maxFrame bounds a frame payload (64 MiB): large enough for any
// realistic data block, small enough that a corrupt length prefix
// fails fast instead of allocating garbage.
const maxFrame = 64 << 20

// Environment variables that activate worker mode (see MaybeWorker).
const (
	// EnvSocket is the coordinator's Unix socket path. Its presence
	// turns the process into a worker.
	EnvSocket = "ORCHDIST_SOCKET"
	// EnvWorker names the worker's connection in its hello, among the
	// processes forked together; the id it works under arrives with
	// each job.
	EnvWorker = "ORCHDIST_WORKER"
)

// helloMsg introduces a worker after it connects.
type helloMsg struct {
	Worker int `json:"worker"`
	PID    int `json:"pid"`
}

// jobMsg ships one run to a worker: the encoded graph, the name-level
// binding (resolved against the worker's own kernel registry), and the
// run parameters the worker needs locally.
type jobMsg struct {
	// Worker is the receiving worker's id in this run (0-based): what
	// its share of the fault plan is keyed by.
	Worker  int         `json:"worker"`
	Graph   string      `json:"graph"`
	Binding rts.Binding `json:"binding"`
	// Workers is the total worker count (fault plans validate against
	// it; kernels may size communication estimates with it).
	Workers int `json:"workers"`
	// Fault is the run's fault plan in internal/fault syntax; each
	// worker executes its own actions (a crash action is a literal
	// self-SIGKILL at a grant boundary).
	Fault string `json:"fault,omitempty"`
	// Ops is the operator-name table: binary frames refer to operators
	// by index into this slice (topological order).
	Ops []string `json:"ops"`
}

// jobOKMsg acknowledges (or refuses) a job.
type jobOKMsg struct {
	Err string `json:"err,omitempty"`
}

// byeMsg is a worker's sign-off: its final memory-image digest (empty
// when the kernels have none), for the coordinator's cross-process
// bitwise check.
type byeMsg struct {
	Digest string `json:"digest,omitempty"`
	Err    string `json:"err,omitempty"`
}

// segHeader is the fixed binary prefix of grant/done/block frames.
const segHeaderLen = 16

func putSegHeader(buf []byte, op, lo, hi, seq int) {
	binary.BigEndian.PutUint32(buf[0:], uint32(op))
	binary.BigEndian.PutUint32(buf[4:], uint32(lo))
	binary.BigEndian.PutUint32(buf[8:], uint32(hi))
	binary.BigEndian.PutUint32(buf[12:], uint32(seq))
}

func getSegHeader(buf []byte) (op, lo, hi, seq int) {
	return int(binary.BigEndian.Uint32(buf[0:])),
		int(binary.BigEndian.Uint32(buf[4:])),
		int(binary.BigEndian.Uint32(buf[8:])),
		int(binary.BigEndian.Uint32(buf[12:]))
}

// writeFrame emits one frame whose payload is the concatenation of
// parts, in one write: a frame that fits the stack buffer is assembled
// there, a larger one goes out as a net.Buffers (one writev on a
// socket), so a payload is never copied to sit behind its header.
// Callers serialize access per connection (the coordinator writes from
// its single scheduler goroutine; workers hold a mutex across their
// response and heartbeat paths).
func writeFrame(w io.Writer, typ byte, parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > maxFrame {
		return fmt.Errorf("dist: frame payload %d exceeds limit %d", n, maxFrame)
	}
	var small [5 + segHeaderLen + 8]byte
	binary.BigEndian.PutUint32(small[:4], uint32(n))
	small[4] = typ
	if 5+n <= len(small) {
		at := 5
		for _, p := range parts {
			at += copy(small[at:], p)
		}
		_, err := w.Write(small[:at])
		return err
	}
	bufs := make(net.Buffers, 0, 1+len(parts))
	bufs = append(bufs, small[:5])
	bufs = append(bufs, parts...)
	_, err := bufs.WriteTo(w)
	return err
}

// writeJSON emits one control frame with a JSON payload.
func writeJSON(w io.Writer, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFrame(w, typ, payload)
}

// readFrame reads one frame.
func readFrame(r *bufio.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame payload %d exceeds limit %d", n, maxFrame)
	}
	typ = hdr[4]
	if n > 0 {
		payload = make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, nil, err
		}
	}
	return typ, payload, nil
}
