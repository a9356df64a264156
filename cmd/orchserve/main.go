// Command orchserve is the orchestration daemon: a long-running HTTP
// service that keeps one warm pool of native workers alive for its
// whole lifetime, compiles each distinct submitted program once into a
// content-addressed graph cache, and multiplexes concurrent jobs onto
// the shared pool with the paper's finishing-time-equalizing processor
// allocator deciding each job's worker grant.
//
// API (JSON over HTTP; see internal/serve):
//
//	POST /api/v1/jobs            submit a program or graph (sync, or
//	                             "async": true for a job id to poll)
//	GET  /api/v1/jobs/{id}       status/result (?wait=1 blocks)
//	POST /api/v1/jobs/{id}/cancel
//	GET  /api/v1/stats           pool occupancy, graph-cache hit rates,
//	                             per-job allocation decisions
//	GET  /healthz
//
// Example:
//
//	orchserve -addr :8021 -pool 8 &
//	curl -s localhost:8021/api/v1/jobs -d '{
//	  "program": "'"$(sed -e 's/$/\\n/' examples/figure1.f | tr -d '\n')"'",
//	  "mode": "split", "n": 4096
//	}'
//
// The daemon shuts down cleanly on SIGINT/SIGTERM: running jobs are
// canceled at their next chunk boundaries, the pool drains, and the
// listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"orchestra/internal/cliflag"
	"orchestra/internal/serve"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stderr, stop))
}

// run is the daemon: it parses args, listens, serves until stop
// delivers a signal or is closed, drains, and returns the exit code —
// 2 for bad flags, 1 when the address cannot be served.
func run(args []string, stderr io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("orchserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8021", "listen address")
	pool := fs.Int("pool", 0, "warm pool size in worker goroutines (0 = GOMAXPROCS)")
	mode := cliflag.Modes(fs, "default-mode", "split", "execution mode for submissions that omit one")
	omega := fs.Float64("omega", 0, "default TAPER confidence width ω (0 = scheduler default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	m, err := mode.Single()
	if err != nil {
		fmt.Fprintln(stderr, "orchserve: -default-mode:", err)
		return 2
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "orchserve:", err)
		return 1
	}

	s := serve.New(serve.Config{PoolSize: *pool, DefaultMode: m, Omega: *omega})
	srv := &http.Server{Handler: s.Handler()}
	fmt.Fprintf(stderr, "orchserve: listening on %s (pool %d workers, default mode %s)\n",
		ln.Addr(), s.Stats().Pool.Size, m)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		// Serve returns before Shutdown only on failure.
		fmt.Fprintln(stderr, "orchserve:", err)
		s.Close()
		return 1
	case <-stop:
	}
	fmt.Fprintln(stderr, "orchserve: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	s.Close()
	return 0
}
