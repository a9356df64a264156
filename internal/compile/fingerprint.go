package compile

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Fingerprint is the content address of one compilation: SHA-256 over
// the source text and every option that can change the compiler's
// output, canonically encoded. Equal fingerprints mean Compile would
// produce the same graph, which is what makes a compile-once/run-many
// graph cache sound: the serve daemon keys its cache on this, so
// resubmitting a program (even under a different job name) reuses the
// compiled graph, while flipping any transformation knob misses.
func Fingerprint(src string, opts Options) string {
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeStr("orchestra/compile/v1")
	writeStr(src)
	writeStr(fmt.Sprintf("fusion=%t split=%t pipeline=%t depth=%d",
		opts.EnableFusion, opts.EnableSplit, opts.EnablePipeline, opts.PipelineDepth))
	return hex.EncodeToString(h.Sum(nil))
}

// GraphFingerprint is the content address of a raw Delirium graph
// submission (no compilation involved): the same cache can hold both
// compiled programs and directly submitted graphs without the two key
// spaces colliding.
func GraphFingerprint(text string) string {
	h := sha256.New()
	h.Write([]byte("orchestra/graph/v1\x00"))
	h.Write([]byte(text))
	return hex.EncodeToString(h.Sum(nil))
}
