package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"
)

// Go-native fuzz targets at the dist trust boundary: what arrives on a
// socket is parsed by readFrame and, for a done, acted on by handleDone.
// Either refuses a bad input with an error — it never panics, and
// handleDone never applies part of a frame it then refuses. `go test`
// runs the seeds; `go test -fuzz FuzzReadFrame ./internal/dist` mutates.

// frameBytes is writeFrame's output for one frame.
func frameBytes(typ byte, parts ...[]byte) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, typ, parts...); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzReadFrame(f *testing.F) {
	// proto_test.go's vectors: the oversize prefix, both truncations,
	// empty and back-to-back frames; then the zero-length hot frames and
	// a length one past the cap.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, mHello})
	f.Add([]byte{0x04, 0x00, 0x00, 0x01, mBlock})
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x05, mGrant, 0x01})
	f.Add([]byte{})
	f.Add(frameBytes(mHeartbeat))
	f.Add(frameBytes(mFinish))
	f.Add(frameBytes(mGrant))
	f.Add(frameBytes(mDone))
	f.Add(append(frameBytes(mHello, []byte("x")), frameBytes(mBye, bytes.Repeat([]byte{0xAB}, 300))...))
	f.Add(frameBytes(mDone, doneFrame(seg{3, 17, 4096, 9})))
	f.Fuzz(func(t *testing.T, data []byte) {
		// readFrame allocates what a length prefix asks for before the
		// bytes arrive. A large frame with nothing behind it is legal to
		// ask for, but allocating megabytes a thousand times a second is
		// not what this target is for; the cap itself is seeded above.
		for off := 0; off+4 <= len(data); {
			n := int(binary.BigEndian.Uint32(data[off:]))
			if n > maxFrame {
				break
			}
			if n > 1<<16 && off+5+n > len(data) {
				t.Skip()
			}
			off += 5 + n
		}
		br := bufio.NewReader(bytes.NewReader(data))
		consumed := 0
		for {
			typ, payload, err := readFrame(br)
			if err != nil {
				return
			}
			if len(payload) > maxFrame {
				t.Fatalf("accepted a %d-byte payload", len(payload))
			}
			// An accepted frame is exactly the bytes it was read from.
			again := frameBytes(typ, payload)
			if !bytes.Equal(again, data[consumed:consumed+len(again)]) {
				t.Fatalf("frame type %d with %d bytes does not re-encode to its input", typ, len(payload))
			}
			consumed += len(again)
		}
	})
}

func FuzzHandleDone(f *testing.F) {
	// Three workers over a 4096-task operator: every run of the target
	// starts from this state, in which worker 0 holds head and next.
	start := func(tb testing.TB) (*image, *sched) {
		im := newImage(4096)
		s := handSched(tb, im, []net.Conn{discardConn{}, discardConn{}, discardConn{}})
		s.t0 = time.Now()
		s.dispatchAll()
		return im, s
	}
	_, s0 := start(f)
	head, next := s0.workers[0].held[0].seg, s0.workers[0].held[1].seg
	good := doneFrame(head)
	f.Add(good)
	f.Add(good[:segHeaderLen+7])                               // short payload
	f.Add([]byte{})                                            // empty
	f.Add(doneFrame(seg{head.op, head.hi, head.lo, head.seq})) // lo > hi
	f.Add(doneFrame(seg{9, head.lo, head.hi, head.seq}))       // operator out of range
	f.Add(doneFrame(seg{1<<31 - 1, 1<<31 - 1, 1<<31 - 1, 1}))  // header at its edge
	f.Add(doneFrame(next))                                     // its second grant, not the head
	f.Add(doneFrame(seg{head.op, head.lo, head.hi, 2}))        // right range, another worker's seq
	f.Add(good[:segHeaderLen+8])                               // head, no blob
	f.Fuzz(func(t *testing.T, payload []byte) {
		im, s := start(t)
		w := s.workers[0]
		if len(w.held) != credit || w.held[0].seg != head {
			t.Fatalf("worker 0 holds %+v, not %+v first: the start state is not deterministic", w.held, head)
		}
		outstanding := s.f.Outstanding()
		err := s.handleDone(w, payload)
		valid := len(payload) >= segHeaderLen+8 && bytes.Equal(payload[:segHeaderLen], good[:segHeaderLen])
		if valid != (err == nil) {
			t.Fatalf("done valid=%v, handleDone returned %v", valid, err)
		}
		applied := 0
		for k := range im.applied {
			for _, c := range im.applied[k] {
				applied += c
			}
		}
		if err != nil {
			if applied != 0 || s.f.Outstanding() != outstanding || len(w.held) != credit || w.held[0].seg != head || s.grants != 0 {
				t.Fatalf("refused done left a mark: %d cells applied, %d outstanding (was %d), holding %+v", applied, s.f.Outstanding(), outstanding, w.held)
			}
			return
		}
		wantApplied := 0
		if len(payload) > segHeaderLen+8 {
			wantApplied = head.hi - head.lo
		}
		if applied != wantApplied || s.f.Outstanding() != outstanding-(head.hi-head.lo) || s.grants != 1 {
			t.Fatalf("accepted done: %d cells applied (want %d), %d outstanding (was %d)", applied, wantApplied, s.f.Outstanding(), outstanding)
		}
	})
}
