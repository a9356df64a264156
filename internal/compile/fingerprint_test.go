package compile

import (
	"strings"
	"testing"
)

func TestFingerprintStability(t *testing.T) {
	src := "program p\n integer n\nend\n"
	a := Fingerprint(src, DefaultOptions())
	b := Fingerprint(src, DefaultOptions())
	if a != b {
		t.Fatalf("same source+options fingerprint differs: %s vs %s", a, b)
	}
	if len(a) != 64 || strings.Trim(a, "0123456789abcdef") != "" {
		t.Fatalf("fingerprint %q is not hex sha256", a)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	src := "program p\n integer n\nend\n"
	base := Fingerprint(src, DefaultOptions())
	seen := map[string]string{base: "base"}
	add := func(label, fp string) {
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", label, prev)
		}
		seen[fp] = label
	}
	add("source change", Fingerprint(src+" ", DefaultOptions()))

	o := DefaultOptions()
	o.EnableSplit = false
	add("split off", Fingerprint(src, o))

	o = DefaultOptions()
	o.EnablePipeline = false
	add("pipeline off", Fingerprint(src, o))

	o = DefaultOptions()
	o.PipelineDepth = 2
	add("depth 2", Fingerprint(src, o))

	o = DefaultOptions()
	o.EnableFusion = true
	add("fusion on", Fingerprint(src, o))
}

func TestGraphFingerprintDistinctSpace(t *testing.T) {
	if GraphFingerprint("x") == GraphFingerprint("y") {
		t.Fatal("different graphs share a fingerprint")
	}
	// A graph submission never collides with a program submission of
	// identical text.
	if GraphFingerprint("text") == Fingerprint("text", Options{}) {
		t.Fatal("graph and program key spaces collide")
	}
}
