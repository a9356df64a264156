package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orchestra/internal/rts"
	"orchestra/internal/serve"
)

// daemon serves an in-process orchserve on a loopback port.
func daemon(t *testing.T) *httptest.Server {
	t.Helper()
	s := serve.New(serve.Config{PoolSize: 4, DefaultMode: rts.ModeSplit})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// TestRunVerifiesAgainstDaemon drives a verified load run end to end
// and checks the -out document.
func TestRunVerifiesAgainstDaemon(t *testing.T) {
	ts := daemon(t)
	out := filepath.Join(t.TempDir(), "load.json")
	var stdout, stderr strings.Builder
	code := run([]string{"-addr", ts.URL, "-jobs", "20", "-concurrency", "4", "-n", "64",
		"-verify", "-out", out, "../../examples/figure1.f"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != 1 || doc.Jobs != 20 || doc.DigestMismatches != 0 || doc.Errors != 0 {
		t.Errorf("-out document: schema %d, jobs %d, mismatches %d, errors %d; want 1, 20, 0, 0",
			doc.Schema, doc.Jobs, doc.DigestMismatches, doc.Errors)
	}
	if doc.Digest == "" {
		t.Error("-verify run recorded no reference digest")
	}
}

func TestRunUnreachableDaemon(t *testing.T) {
	ts := httptest.NewServer(nil)
	addr := ts.URL
	ts.Close() // nothing listens on addr any more
	var stdout, stderr strings.Builder
	code := run([]string{"-addr", addr, "-jobs", "2", "-concurrency", "1",
		"../../examples/figure1.f"}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("load run against a closed address exited 0; stdout %q", stdout.String())
	}
}

func TestRunMissingProgram(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-jobs", "1"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage") {
		t.Errorf("stderr %q lacks the usage line", stderr.String())
	}
}
