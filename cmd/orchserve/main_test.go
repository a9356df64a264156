package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

func TestRunBadDefaultMode(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"-default-mode", "bogus"}, &stderr, nil); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr %q", code, stderr.String())
	}
}

// TestRunOmegaIsUnknown: TAPER's confidence width is fixed by each
// job's worker grant, so -omega is an unknown flag.
func TestRunOmegaIsUnknown(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"-omega", "2"}, &stderr, nil); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr %q", code, stderr.String())
	}
}

func TestRunAddressInUse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var stderr strings.Builder
	if code := run([]string{"-addr", ln.Addr().String(), "-pool", "1"}, &stderr, nil); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr %q", code, stderr.String())
	}
}

// TestRunServesUntilStopped starts the daemon on an ephemeral port,
// reads the bound address from its log line, checks /healthz, and
// closes stop for a clean exit.
func TestRunServesUntilStopped(t *testing.T) {
	pr, pw := io.Pipe()
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
	}()
	stop := make(chan os.Signal)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-pool", "1"}, pw, stop)
		pw.Close()
	}()

	var addr string
	select {
	case line := <-lines:
		const prefix = "orchserve: listening on "
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("first log line %q lacks %q", line, prefix)
		}
		addr, _, _ = strings.Cut(strings.TrimPrefix(line, prefix), " ")
	case code := <-exit:
		t.Fatalf("daemon exited %d before listening", code)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon logged no listening address")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d, want 200", resp.StatusCode)
	}

	close(stop)
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code after stop = %d, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after stop closed")
	}
}
