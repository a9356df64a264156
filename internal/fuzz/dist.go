package fuzz

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"orchestra/internal/compile"
	"orchestra/internal/rts"
	"orchestra/internal/source"
)

// This file makes fuzz programs runnable on the dist backend: the
// "fuzz" registry kernel rebuilds a program's lowered instance from
// data alone (the program source text and the image seed ship in
// rts.Binding.Params), and Pack/Apply move a segment's version-buffer
// writes across the socket. Both sides of the socket run the same
// deterministic pipeline — parse, compile, buildImage, Lower — so
// version ids, task counts and initial memory agree bit-for-bit.

func init() {
	rts.Kernels.MustRegister("fuzz", fuzzKernel)
}

// FuzzBinding names the "fuzz" kernel for one generated program: the
// formatted source text and the oracle's image seed are the entire
// run description.
func FuzzBinding(prog *source.Program, seed uint64) rts.Binding {
	params := rts.KernelParams{"program": source.Format(prog)}
	params.SetUint64("seed", seed)
	return rts.NamedBinding("fuzz", params)
}

// fuzzEnvState is the per-run product of the "fuzz" kernel family.
type fuzzEnvState struct {
	in      *Instance
	arrays  []string
	scalars []string
}

// fuzzKernel resolves one operator: the whole pipeline runs once per
// BindEnv (memoized), per-op resolution reuses the shared instance.
func fuzzKernel(env *rts.BindEnv, op string) (rts.OpSpec, error) {
	v, err := env.Memo("fuzz.instance", func() (any, error) {
		text := env.Params.Str("program", "")
		if text == "" {
			return nil, fmt.Errorf("fuzz kernel: no program parameter")
		}
		seed := env.Params.Uint64("seed", 0)
		st, err := buildState(text, seed)
		if err != nil {
			return nil, err
		}
		env.SetDigest(func() string {
			return st.in.Fingerprint(st.arrays, st.scalars)
		})
		return st, nil
	})
	if err != nil {
		return rts.OpSpec{}, err
	}
	return v.(*fuzzEnvState).in.Binder()(op), nil
}

// buildState reruns the oracle's deterministic front half for one
// (program, seed) pair: parse, derive the initial image, compile,
// lower, and materialize a fresh instance.
func buildState(text string, seed uint64) (*fuzzEnvState, error) {
	prog, err := source.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("fuzz kernel: parse: %w", err)
	}
	arrays, scalars := observed(prog)
	img, err := buildImage(prog, seed)
	if err != nil {
		return nil, fmt.Errorf("fuzz kernel: image: %w", err)
	}
	out, err := compile.Compile(source.CloneProgram(prog), compile.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("fuzz kernel: compile: %w", err)
	}
	low, err := Lower(out, img.scalars, img.arrays)
	if err != nil {
		return nil, fmt.Errorf("fuzz kernel: lower: %w", err)
	}
	return &fuzzEnvState{in: low.NewInstance(false), arrays: arrays, scalars: scalars}, nil
}

// InstanceOf returns the instance a registry-bound fuzz run executed
// on (the coordinator's local image, for dist runs), or nil when the
// bound value is not a fuzz binding.
func InstanceOf(b *rts.Bound) *Instance {
	if b == nil || b.Env == nil {
		return nil
	}
	v, err := b.Env.Memo("fuzz.instance", func() (any, error) {
		return nil, fmt.Errorf("fuzz: binding was never resolved")
	})
	if err != nil {
		return nil
	}
	return v.(*fuzzEnvState).in
}

// Fingerprint digests the final values of the observed variables —
// the same state diffFinal compares — so two processes can prove
// bitwise agreement with one string.
func (in *Instance) Fingerprint(arrays, scalars []string) string {
	h := sha256.New()
	var buf [8]byte
	for _, name := range scalars {
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(in.FinalScalar(name)))
		h.Write(buf[:])
	}
	for _, name := range arrays {
		h.Write([]byte(name))
		for _, v := range in.FinalArray(name) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// packWrites serializes everything tasks [lo,hi) of kernel k wrote:
// for each version buffer the op owns, the elements whose recorded
// writer lies in the segment, plus the op's scalar-version values.
// The format is private to this kernel family (both ends run the same
// code): little-endian, per array version (id, count, count ×
// (offset, writer, float bits)), then per scalar version (id, bits).
func (in *Instance) packWrites(k *kernel, lo, hi int) []byte {
	var out []byte
	var n32 [4]byte
	var n64 [8]byte
	put32 := func(v int) {
		binary.LittleEndian.PutUint32(n32[:], uint32(v))
		out = append(out, n32[:]...)
	}
	put64 := func(v float64) {
		binary.LittleEndian.PutUint64(n64[:], math.Float64bits(v))
		out = append(out, n64[:]...)
	}

	// Count owned array versions first so Apply can loop exactly.
	var owned []int
	for id := range in.low.aPlans {
		if in.low.aPlans[id].owner == k.idx {
			owned = append(owned, id)
		}
	}
	put32(len(owned))
	for _, id := range owned {
		put32(id)
		countAt := len(out)
		put32(0)
		count := 0
		flag, writer := in.aFlag[id], in.aWriter[id]
		for off := range flag {
			if flag[off] && int(writer[off]) >= lo && int(writer[off]) < hi {
				put32(off)
				put32(int(writer[off]))
				put64(in.aVals[id][off])
				count++
			}
		}
		binary.LittleEndian.PutUint32(out[countAt:], uint32(count))
	}

	countAt := len(out)
	put32(0)
	count := 0
	for id := range in.low.sPlans {
		if in.low.sPlans[id].owner == k.idx && in.sSet[id] {
			put32(id)
			put64(in.sVal[id])
			count++
		}
	}
	binary.LittleEndian.PutUint32(out[countAt:], uint32(count))
	return out
}

// applySegment installs a packed segment into this instance's version
// buffers. Malformed blobs (impossible between same-binary processes)
// record an instance failure rather than corrupting memory.
func (in *Instance) applySegment(k *kernel, lo, hi int, blob []byte) {
	pos := 0
	get32 := func() (int, bool) {
		if pos+4 > len(blob) {
			return 0, false
		}
		v := int(binary.LittleEndian.Uint32(blob[pos:]))
		pos += 4
		return v, true
	}
	get64 := func() (float64, bool) {
		if pos+8 > len(blob) {
			return 0, false
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(blob[pos:]))
		pos += 8
		return v, true
	}
	bad := func() {
		in.recordFailure(k.name, lo, "malformed dist segment blob")
	}
	nver, ok := get32()
	if !ok {
		bad()
		return
	}
	for v := 0; v < nver; v++ {
		id, ok1 := get32()
		count, ok2 := get32()
		if !ok1 || !ok2 || id < 0 || id >= len(in.aVals) {
			bad()
			return
		}
		for c := 0; c < count; c++ {
			off, ok1 := get32()
			writer, ok2 := get32()
			val, ok3 := get64()
			if !ok1 || !ok2 || !ok3 || off < 0 || off >= len(in.aVals[id]) {
				bad()
				return
			}
			in.aVals[id][off] = val
			in.aWriter[id][off] = int32(writer)
			in.aFlag[id][off] = true
		}
	}
	nsca, ok := get32()
	if !ok {
		bad()
		return
	}
	for c := 0; c < nsca; c++ {
		id, ok1 := get32()
		val, ok2 := get64()
		if !ok1 || !ok2 || id < 0 || id >= len(in.sVal) {
			bad()
			return
		}
		in.sVal[id] = val
		in.sSet[id] = true
	}
}
