package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSegHeaderRoundTrip pins the segment-header layout at its edges.
func TestSegHeaderRoundTrip(t *testing.T) {
	cases := [][4]int{
		{0, 0, 0, 0},
		{3, 17, 4096, 9},
		{0, 0, 1, 1},
		{255, 1 << 30, 1<<31 - 1, 1 << 20},
	}
	for _, c := range cases {
		var buf [segHeaderLen]byte
		putSegHeader(buf[:], c[0], c[1], c[2], c[3])
		op, lo, hi, seq := getSegHeader(buf[:])
		if op != c[0] || lo != c[1] || hi != c[2] || seq != c[3] {
			t.Errorf("round trip %v -> (%d,%d,%d,%d)", c, op, lo, hi, seq)
		}
	}
}

// TestFrameRoundTrip checks the length-prefixed framing through a
// buffer, including empty payloads and back-to-back frames.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 70000)}
	for i, p := range payloads {
		if err := writeFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for i, p := range payloads {
		typ, got, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(i+1) {
			t.Fatalf("frame %d: type %d", i, typ)
		}
		if !bytes.Equal(got, p) && len(got)+len(p) > 0 {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(got), len(p))
		}
	}
}

// TestFrameRejectsOversize checks the 64 MiB frame cap on the read
// side — a corrupted length prefix must not become a giant allocation.
func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, mHello})
	if _, _, err := readFrame(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestJobMessageRoundTrip checks that the JSON job payload carries the
// binding (kernel name, params) losslessly.
func TestJobMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := jobMsg{
		Graph:   "graph g\n",
		Workers: 3,
		Ops:     []string{"a", "b"},
		Fault:   "crash:0@1",
	}
	in.Binding.Kernel = "array"
	in.Binding.Params = map[string]string{"n": "128", "cv": "1.5"}
	if err := writeJSON(&buf, mJob, in); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(bufio.NewReader(&buf))
	if err != nil || typ != mJob {
		t.Fatalf("read: type %d err %v", typ, err)
	}
	var out jobMsg
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatal(err)
	}
	if out.Binding.Kernel != "array" ||
		out.Binding.Params["n"] != "128" || out.Fault != "crash:0@1" ||
		len(out.Ops) != 2 || out.Workers != 3 {
		t.Fatalf("job did not survive the wire: %+v", out)
	}
}

// TestShortFrame checks that a truncated stream surfaces as an error,
// not a hang or a zero-value frame.
func TestShortFrame(t *testing.T) {
	for _, raw := range [][]byte{
		{0x00},
		{0x00, 0x00, 0x00, 0x05, mGrant, 0x01},
	} {
		if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(raw))); err == nil {
			t.Fatalf("truncated frame %v accepted", raw)
		}
	}
}

// TestWorkerRefusesUnknownKernel checks the bind refusal path: a job
// naming an unregistered kernel must produce a refusal string that
// names it, not a panic or a silent empty spec.
func TestWorkerRefusesUnknownKernel(t *testing.T) {
	job := &jobMsg{Graph: "graph g\nnode a kind=par\n", Ops: []string{"a"}}
	job.Binding.Kernel = "no-such-kernel"
	_, _, refuse := bindJob(job)
	if refuse == "" {
		t.Fatal("unknown kernel accepted")
	}
	if !strings.Contains(refuse, "no-such-kernel") {
		t.Fatalf("refusal %q does not name the kernel", refuse)
	}
}
