package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orchestra/internal/core"
)

const figure1 = "../../examples/figure1.f"

// TestRunPrintsFigure1Graph checks that the graph orchc prints for the
// paper's running example is the one the library compiles.
func TestRunPrintsFigure1Graph(t *testing.T) {
	src, err := os.ReadFile(figure1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.CompileSource(string(src), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{figure1}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	_, graph, ok := strings.Cut(stdout.String(), "! ---- dataflow graph ----\n")
	if !ok {
		t.Fatalf("no graph section in:\n%s", stdout.String())
	}
	if want := out.Graph.Encode(); graph != want {
		t.Fatalf("printed graph:\n%s\nwant:\n%s", graph, want)
	}
}

// TestRunWritesOutputs checks that -o writes the transformed program
// and the graph next to the given prefix.
func TestRunWritesOutputs(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "fig1")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-o", prefix, figure1}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, ext := range []string{".f", ".graph"} {
		if b, err := os.ReadFile(prefix + ext); err != nil || len(b) == 0 {
			t.Errorf("%s%s: %d bytes, %v", prefix, ext, len(b), err)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("-o still printed to stdout:\n%s", stdout.String())
	}
}

// TestRunRefusesToOverwriteInput checks that an -o prefix naming the
// input file fails before writing anything.
func TestRunRefusesToOverwriteInput(t *testing.T) {
	src, err := os.ReadFile(figure1)
	if err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(t.TempDir(), "prog")
	if err := os.WriteFile(prefix+".f", src, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-o", prefix, prefix + ".f"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "overwrite") {
		t.Errorf("stderr does not explain the refusal: %s", stderr.String())
	}
	if b, err := os.ReadFile(prefix + ".f"); err != nil || !bytes.Equal(b, src) {
		t.Error("the input was changed")
	}
}

// TestRunExitCodes: a program that does not parse exits 1, bad usage 2.
func TestRunExitCodes(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.f")
	if err := os.WriteFile(bad, []byte("not a program\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{bad}, 1},
		{nil, 2},
		{[]string{figure1, figure1}, 2},
		{[]string{"-no-such-flag", figure1}, 2},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.want {
			t.Errorf("orchc %v: exit %d, want %d (%s)", c.args, code, c.want, stderr.String())
		}
	}
}
