// Command orchload replays a stream of concurrent job submissions
// against a running orchserve daemon and reports throughput and
// latency percentiles. With -verify it also checks end-to-end
// correctness: every job's result digest must be bitwise identical to
// a local one-shot run of the same program on a fresh native backend.
//
// Usage:
//
//	orchserve -addr :8021 &
//	orchload -addr http://127.0.0.1:8021 -jobs 1000 -concurrency 16 \
//	         -n 512 -verify examples/figure1.f
//
// The summary goes to stdout; -out file.json additionally writes the
// full series (schema 1):
//
//	{"schema": 1, "jobs": ..., "throughput_jps": ...,
//	 "latency_s": {"mean": ..., "p50": ..., "p99": ..., "p999": ...},
//	 "digest_mismatches": 0, "cache_hits": ...}
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"orchestra/internal/cliflag"
	"orchestra/internal/core"
	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/serve"
	"orchestra/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchDoc is the -out file's schema (schema 1).
type benchDoc struct {
	Schema           int        `json:"schema"`
	Jobs             int        `json:"jobs"`
	Concurrency      int        `json:"concurrency"`
	PoolWorkers      int        `json:"pool_workers"`
	Mode             string     `json:"mode"`
	N                int        `json:"n"`
	DurationS        float64    `json:"duration_s"`
	ThroughputJPS    float64    `json:"throughput_jps"`
	Latency          latencyDoc `json:"latency_s"`
	Errors           int        `json:"errors"`
	Digest           string     `json:"digest,omitempty"`
	DigestMismatches int        `json:"digest_mismatches"`
	CacheHits        int64      `json:"cache_hits"`
	CacheMisses      int64      `json:"cache_misses"`
}

type latencyDoc struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("orchload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:8021", "orchserve base URL")
	jobs := fs.Int("jobs", 1000, "total jobs to submit")
	conc := fs.Int("concurrency", 16, "concurrent in-flight submissions")
	n := fs.Int("n", 256, "per-operator task count for each job")
	work := fs.Int("work", 1, "kernel work rounds per task")
	procs := fs.Int("p", 0, "per-job processor cap (0 = allocator's choice)")
	mode := cliflag.Modes(fs, "mode", "split", "execution mode for every job")
	verify := fs.Bool("verify", false, "compare every job's digest against a local one-shot run")
	out := fs.String("out", "", "also write the full series to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: orchload [flags] file.f")
		return 2
	}
	m, err := mode.Single()
	if err != nil {
		fmt.Fprintln(stderr, "orchload: -mode:", err)
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "orchload:", err)
		return 1
	}

	// Local reference digest: one-shot compile + run on a private
	// backend, entirely outside the daemon.
	refDigest := ""
	if *verify {
		refDigest, err = localDigest(string(src), *n, *work, m)
		if err != nil {
			fmt.Fprintln(stderr, "orchload: local reference run:", err)
			return 1
		}
	}

	req := serve.SubmitRequest{
		Program:    string(src),
		N:          *n,
		Work:       *work,
		Mode:       m.String(),
		Processors: *procs,
	}
	body, err := json.Marshal(req)
	if err != nil {
		fmt.Fprintln(stderr, "orchload:", err)
		return 1
	}

	client := &http.Client{}
	url := strings.TrimRight(*addr, "/") + "/api/v1/jobs"
	latencies := make([]float64, *jobs)
	var mu sync.Mutex
	errs := 0
	mismatches := 0

	var wg sync.WaitGroup
	next := make(chan int)
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				st, err := submit(client, url, body)
				lat := time.Since(t0).Seconds()
				mu.Lock()
				latencies[i] = lat
				if err != nil {
					errs++
					if errs <= 3 {
						fmt.Fprintln(stderr, "orchload:", err)
					}
				} else if refDigest != "" && st.Digest != refDigest {
					mismatches++
					if mismatches <= 3 {
						fmt.Fprintf(stderr, "orchload: %s digest %.12s... != local %.12s...\n",
							st.ID, st.Digest, refDigest)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < *jobs; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(start).Seconds()

	stats, statsErr := fetchStats(client, *addr)

	doc := benchDoc{
		Schema:           trace.SchemaVersion,
		Jobs:             *jobs,
		Concurrency:      *conc,
		Mode:             m.String(),
		N:                *n,
		DurationS:        wall,
		ThroughputJPS:    float64(*jobs) / wall,
		Latency:          summarize(latencies),
		Errors:           errs,
		Digest:           refDigest,
		DigestMismatches: mismatches,
	}
	if statsErr == nil {
		doc.PoolWorkers = stats.Pool.Size
		doc.CacheHits = stats.Cache.Hits
		doc.CacheMisses = stats.Cache.Misses
	}

	fmt.Fprintf(stdout, "%d jobs x %d concurrent on %d workers: %.1f jobs/s\n",
		doc.Jobs, doc.Concurrency, doc.PoolWorkers, doc.ThroughputJPS)
	fmt.Fprintf(stdout, "latency  mean %s  p50 %s  p90 %s  p99 %s  p999 %s  max %s\n",
		ms(doc.Latency.Mean), ms(doc.Latency.P50), ms(doc.Latency.P90),
		ms(doc.Latency.P99), ms(doc.Latency.P999), ms(doc.Latency.Max))
	fmt.Fprintf(stdout, "cache    %d hits / %d misses\n", doc.CacheHits, doc.CacheMisses)
	if *verify {
		fmt.Fprintf(stdout, "verify   %d digest mismatches against local run\n", mismatches)
	}
	if errs > 0 {
		fmt.Fprintf(stdout, "errors   %d\n", errs)
	}

	if *out != "" {
		data, _ := json.MarshalIndent(doc, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "orchload:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	if errs > 0 || mismatches > 0 {
		return 1
	}
	return 0
}

// submit posts one synchronous job and decodes its terminal status.
func submit(client *http.Client, url string, body []byte) (*serve.JobStatus, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return &st, fmt.Errorf("job failed (%s): %s", resp.Status, st.Error)
	}
	if st.State != serve.StateDone {
		return &st, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return &st, nil
}

func fetchStats(client *http.Client, addr string) (*serve.Stats, error) {
	resp, err := client.Get(strings.TrimRight(addr, "/") + "/api/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// localDigest compiles and runs the program once on a private native
// backend — no pool, no daemon — and returns the result digest.
func localDigest(src string, n, work int, m rts.Mode) (string, error) {
	out, err := core.CompileSource(src, core.DefaultOptions())
	if err != nil {
		return "", err
	}
	params := rts.KernelParams{}
	params.SetInt("n", n)
	params.SetInt("work", work)
	bound, err := rts.Bind(out.Graph, rts.NamedBinding("array", params))
	if err != nil {
		return "", err
	}
	if _, err := (native.Backend{}.Run(out.Graph, bound, rts.RunOpts{Mode: m})); err != nil {
		return "", err
	}
	d, ok := bound.Digest()
	if !ok {
		return "", fmt.Errorf("array kernel produced no digest")
	}
	return d, nil
}

// summarize computes the latency document from per-job seconds.
func summarize(lats []float64) latencyDoc {
	if len(lats) == 0 {
		return latencyDoc{}
	}
	s := append([]float64(nil), lats...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	pct := func(p float64) float64 {
		i := int(p * float64(len(s)-1))
		return s[i]
	}
	return latencyDoc{
		Mean: sum / float64(len(s)),
		P50:  pct(0.50),
		P90:  pct(0.90),
		P99:  pct(0.99),
		P999: pct(0.999),
		Max:  s[len(s)-1],
	}
}

func ms(v float64) string { return fmt.Sprintf("%.2fms", v*1e3) }
