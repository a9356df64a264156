package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"orchestra/internal/delirium"
)

// writeGraph encodes a small two-node pipelined graph to a temp file.
func writeGraph(t *testing.T) string {
	t.Helper()
	g := delirium.NewGraph("t")
	for _, n := range []string{"a", "b"} {
		if err := g.AddNode(&delirium.Node{Name: n, Kind: delirium.Par}); err != nil {
			t.Fatal(err)
		}
	}
	g.AddEdge(&delirium.Edge{From: "a", To: "b", Bytes: 8, Pipelined: true})
	path := filepath.Join(t.TempDir(), "t.graph")
	if err := os.WriteFile(path, []byte(g.Encode()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunUnknownMode(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-mode", "bogus", writeGraph(t)}, &out, &errw)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if msg := errw.String(); !strings.Contains(msg, `unknown mode "bogus"`) || !strings.Contains(msg, "static") {
		t.Errorf("stderr %q should name the bad mode and list valid values", msg)
	}
}

func TestRunUnknownBackend(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-backend", "gpu", writeGraph(t)}, &out, &errw)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if msg := errw.String(); !strings.Contains(msg, `unknown backend "gpu"`) || !strings.Contains(msg, "native") {
		t.Errorf("stderr %q should name the bad backend and list valid values", msg)
	}
}

// TestRunUnknownFlag includes -autosplit and -omega: every run executes
// the graph it is given, so no flag asks for a searched one, and TAPER's
// confidence width is fixed by the worker count.
func TestRunUnknownFlag(t *testing.T) {
	for _, flags := range [][]string{{"-no-such-flag"}, {"-autosplit"}, {"-omega", "2"}} {
		var out, errw strings.Builder
		if code := run(append(flags, writeGraph(t)), &out, &errw); code != 2 {
			t.Errorf("%v: exit code = %d, want 2", flags, code)
		}
	}
}

// TestRunBadProcessors: a negative -p is a usage error on every
// backend, and so is each other size the daemon refuses when negative,
// before anything is bound or run.
func TestRunBadProcessors(t *testing.T) {
	for _, flags := range [][]string{
		{"-p", "-1"},
		{"-backend", "sim", "-p", "-3"},
		{"-backend", "native", "-p", "-2"},
		{"-backend", "dist", "-p", "-1"},
		{"-tasks", "-5"},
		{"-n", "-3"},
		{"-cv", "-1"},
		{"-backend", "native", "-unitwork", "-5"},
		{"-kernel", "-kernelwork", "-2"},
	} {
		var out, errw strings.Builder
		if code := run(append(flags, writeGraph(t)), &out, &errw); code != 2 {
			t.Errorf("%v: exit code = %d, want 2", flags, code)
		}
		if flag := flags[len(flags)-2]; !strings.Contains(errw.String(), flag) {
			t.Errorf("%v: stderr %q does not name %s", flags, errw.String(), flag)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before failing", flags, out.String())
		}
	}
}

// TestRunDefaultProcessors: -p 0, the default, takes the backend's own
// count: GOMAXPROCS workers on native and 64 processors on the
// simulator, one utilization row each in -gantt.
func TestRunDefaultProcessors(t *testing.T) {
	for _, c := range []struct {
		flags []string
		want  int
	}{
		{[]string{"-backend", "native"}, runtime.GOMAXPROCS(0)},
		{[]string{"-backend", "sim", "-p", "0"}, 64},
	} {
		var out, errw strings.Builder
		args := append(c.flags, "-mode", "taper", "-tasks", "16", "-unitwork", "1", "-gantt", writeGraph(t))
		if code := run(args, &out, &errw); code != 0 {
			t.Fatalf("%v: exit code = %d; stderr %q", c.flags, code, errw.String())
		}
		rows := 0
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] == "worker" && f[2] == "utilization" {
				rows++
			}
		}
		if rows != c.want {
			t.Errorf("%v: %d worker rows, want %d:\n%s", c.flags, rows, c.want, out.String())
		}
	}
}

// TestRunHelpNamesBackends checks -h lists the three backends by their
// bare names: no backend takes options.
func TestRunHelpNamesBackends(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-h"}, &out, &errw); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	help := errw.String()
	for _, name := range []string{"sim", "native", "dist"} {
		if !strings.Contains(help, name) {
			t.Errorf("-h does not name backend %q:\n%s", name, help)
		}
	}
	if strings.Contains(help, "k=v") {
		t.Errorf("-h still describes backend options:\n%s", help)
	}
}

func TestRunMissingArgument(t *testing.T) {
	var out, errw strings.Builder
	if code := run(nil, &out, &errw); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "usage:") {
		t.Errorf("stderr %q should print usage", errw.String())
	}
}

func TestRunMissingFile(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{filepath.Join(t.TempDir(), "nope.graph")}, &out, &errw); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
}

func TestRunSimHappyPath(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-p", "8", "-tasks", "64", "-mode", "all", writeGraph(t)}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, errw.String())
	}
	lower := strings.ToLower(out.String())
	for _, mode := range []string{"static", "taper", "split"} {
		if !strings.Contains(lower, mode) {
			t.Errorf("output missing a line for mode %s:\n%s", mode, out.String())
		}
	}
}

func TestRunNativeHappyPath(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-backend", "native", "-p", "2", "-tasks", "64", "-unitwork", "50",
		"-mode", "split", writeGraph(t)}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, errw.String())
	}
	if !strings.Contains(out.String(), " s ") {
		t.Errorf("native output should report wall-clock seconds:\n%s", out.String())
	}
}

// TestRunTaskAnnotations pins what a node's tasks= count does on both
// kinds of backend: zero runs a zero-task operator, a negative count
// fails the binding with an error naming the node and exit code 1, a
// bad graph's, not a bad flag's.
func TestRunTaskAnnotations(t *testing.T) {
	for _, backend := range []string{"sim", "native"} {
		for _, c := range []struct {
			tasks string
			code  int
		}{{"n-4", 0}, {"n-5", 1}} {
			src := "graph z\nnode a kind=par\nnode z kind=par tasks=" + c.tasks + "\nnode b kind=par\nedge a -> z\nedge z -> b\n"
			path := filepath.Join(t.TempDir(), "z.graph")
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			var out, errw strings.Builder
			code := run([]string{"-backend", backend, "-p", "2", "-n", "4", "-tasks", "8", "-unitwork", "1", "-mode", "all", path}, &out, &errw)
			if code != c.code || (code != 0) != strings.Contains(errw.String(), "node z has -1 tasks") {
				t.Errorf("%s, tasks=%s: exit %d, want %d (stderr: %s)", backend, c.tasks, code, c.code, errw.String())
			}
		}
	}
}

// TestRunRefusesBadEdgeVolumes runs the two graphs whose edge volume
// once reached the simulator's barrier hold negative and panicked with
// "scheduling into the past": a negative bytes= count at -n 64, and a
// per-task count that wrapped int64 when multiplied by -n 2 tasks. Both
// are refused at decode time, naming the line, with exit code 1.
func TestRunRefusesBadEdgeVolumes(t *testing.T) {
	const head = "graph r\nnode a kind=par tasks=n\nnode b kind=par tasks=n\n"
	for _, c := range []struct{ edge, n string }{
		{"edge a -> b bytes=-100000000\n", "64"},
		{"edge a -> b bytes=6917529027641081856 pertask\n", "2"},
	} {
		path := filepath.Join(t.TempDir(), "r.graph")
		if err := os.WriteFile(path, []byte(head+c.edge), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"taper", "static"} {
			var out, errw strings.Builder
			code := run([]string{"-p", "8", "-n", c.n, "-mode", mode, path}, &out, &errw)
			if code != 1 || !strings.Contains(errw.String(), "line 4:") {
				t.Errorf("%q -mode %s: exit %d, want 1 with an error naming line 4 (stderr: %s)", c.edge, mode, code, errw.String())
			}
		}
	}
}

func TestRunTraceWritesChromeJSON(t *testing.T) {
	for _, backend := range []string{"sim", "native"} {
		out := filepath.Join(t.TempDir(), "out.json")
		var stdout, errw strings.Builder
		code := run([]string{"-backend", backend, "-p", "4", "-tasks", "64",
			"-unitwork", "50", "-mode", "split", "-trace", out, writeGraph(t)}, &stdout, &errw)
		if code != 0 {
			t.Fatalf("%s: exit code = %d (stderr: %s)", backend, code, errw.String())
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: trace is not valid JSON: %v", backend, err)
		}
		var spans int
		for _, e := range doc.TraceEvents {
			if e["ph"] == "X" {
				spans++
			}
		}
		if spans == 0 {
			t.Errorf("%s: trace has no chunk spans among %d events", backend, len(doc.TraceEvents))
		}
	}
}

func TestRunTraceCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.csv")
	var stdout, errw strings.Builder
	code := run([]string{"-p", "4", "-tasks", "64", "-mode", "taper",
		"-trace", out, writeGraph(t)}, &stdout, &errw)
	if code != 0 {
		t.Fatalf("exit code = %d (stderr: %s)", code, errw.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 || !strings.Contains(lines[0], "kind") {
		t.Fatalf("CSV trace should have a header and rows, got %d lines", len(lines))
	}
}

func TestRunGanttSummary(t *testing.T) {
	var stdout, errw strings.Builder
	code := run([]string{"-p", "4", "-tasks", "64", "-mode", "split",
		"-gantt", writeGraph(t)}, &stdout, &errw)
	if code != 0 {
		t.Fatalf("exit code = %d (stderr: %s)", code, errw.String())
	}
	if !strings.Contains(stdout.String(), "worker 0") {
		t.Errorf("gantt output missing worker rows:\n%s", stdout.String())
	}
}

func TestRunTraceRejectsModeList(t *testing.T) {
	var stdout, errw strings.Builder
	code := run([]string{"-mode", "all", "-trace",
		filepath.Join(t.TempDir(), "out.json"), writeGraph(t)}, &stdout, &errw)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "single -mode") {
		t.Errorf("stderr should explain the single-mode requirement: %s", errw.String())
	}
}
