package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/native"
	"orchestra/internal/rts"
)

// figure1 loads the paper's running example, the daemon's canonical
// test program.
func figure1(t testing.TB) string {
	t.Helper()
	src, err := os.ReadFile("../../examples/figure1.f")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{PoolSize: 4, DefaultMode: rts.ModeSplit})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJob submits a request (a SubmitRequest, or a map for the JSON
// forms the struct cannot express) and decodes the response body
// regardless of status code.
func postJob(t *testing.T, ts *httptest.Server, req any) (int, JobStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, st
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestHTTPSubmitSyncCacheAndParity submits the same program twice:
// the first compile is a cache miss, the second a hit, and both
// results are bitwise identical to a local one-shot run.
func TestHTTPSubmitSyncCacheAndParity(t *testing.T) {
	_, ts := newTestServer(t)
	src := figure1(t)
	req := SubmitRequest{Program: src, N: 64, Mode: "split"}

	code, st := postJob(t, ts, req)
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("first submit: %d %s (%s)", code, st.State, st.Error)
	}
	if st.Cache != "miss" {
		t.Errorf("first submit: cache %q, want miss", st.Cache)
	}
	if st.Digest == "" || st.Result == nil || st.Allocated < 1 {
		t.Errorf("first submit: digest %q result %v allocated %d", st.Digest, st.Result, st.Allocated)
	}

	code2, st2 := postJob(t, ts, req)
	if code2 != http.StatusOK || st2.State != StateDone {
		t.Fatalf("second submit: %d %s (%s)", code2, st2.State, st2.Error)
	}
	if st2.Cache != "hit" {
		t.Errorf("second submit: cache %q, want hit", st2.Cache)
	}
	if st2.Digest != st.Digest {
		t.Errorf("digests differ across submissions: %.12s vs %.12s", st.Digest, st2.Digest)
	}

	// Local one-shot reference, entirely outside the daemon.
	out, err := core.CompileSource(src, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bind, state, err := native.ArrayKernels(out.Graph, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (native.Backend{}).Run(out.Graph, rts.BindClosure(bind), rts.RunOpts{Mode: rts.ModeSplit}); err != nil {
		t.Fatal(err)
	}
	if want := native.StateDigest(state); st.Digest != want {
		t.Errorf("daemon digest %.12s != one-shot %.12s", st.Digest, want)
	}

	var stats Stats
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Cache.Hits < 1 || stats.Cache.Misses < 1 || stats.Cache.Entries != 1 {
		t.Errorf("cache stats = %+v, want >=1 hit, >=1 miss, 1 entry", stats.Cache)
	}
	if stats.Pool.Size != 4 || stats.Pool.Free != 4 {
		t.Errorf("pool stats = %+v, want size 4 all free", stats.Pool)
	}
	if stats.Jobs.Done < 2 || len(stats.Allocations) < 2 {
		t.Errorf("jobs %+v, %d allocation decisions", stats.Jobs, len(stats.Allocations))
	}
}

// TestHTTPSubmitGraphText submits raw Delirium coordination text and
// checks it digests identically to submitting the program it encodes.
func TestHTTPSubmitGraphText(t *testing.T) {
	_, ts := newTestServer(t)
	src := figure1(t)
	out, err := core.CompileSource(src, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	code, byProgram := postJob(t, ts, SubmitRequest{Program: src, N: 48})
	if code != http.StatusOK || byProgram.State != StateDone {
		t.Fatalf("program submit: %d %s (%s)", code, byProgram.State, byProgram.Error)
	}
	code, byGraph := postJob(t, ts, SubmitRequest{Graph: out.Graph.Encode(), N: 48})
	if code != http.StatusOK || byGraph.State != StateDone {
		t.Fatalf("graph submit: %d %s (%s)", code, byGraph.State, byGraph.Error)
	}
	if byGraph.Digest != byProgram.Digest {
		t.Errorf("graph-text digest %.12s != program digest %.12s", byGraph.Digest, byProgram.Digest)
	}
}

// TestHTTPAsyncAndWait drives the async path: a 202 with a job id,
// then a blocking ?wait=1 status read until the terminal state.
func TestHTTPAsyncAndWait(t *testing.T) {
	_, ts := newTestServer(t)
	code, st := postJob(t, ts, SubmitRequest{Program: figure1(t), N: 256, Async: true})
	if code != http.StatusAccepted {
		t.Fatalf("async submit: %d, want 202", code)
	}
	if st.ID == "" {
		t.Fatal("async submit returned no job id")
	}
	var final JobStatus
	if code := getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID+"?wait=1", &final); code != http.StatusOK {
		t.Fatalf("wait: %d", code)
	}
	if final.State != StateDone || final.Digest == "" {
		t.Errorf("after wait: state %s digest %q (%s)", final.State, final.Digest, final.Error)
	}
}

// TestHTTPCancelRunningJob cancels a long async job over HTTP and
// checks it lands in the canceled state with the pool fully released.
func TestHTTPCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t)
	// Big enough that cancellation always lands mid-run.
	code, st := postJob(t, ts, SubmitRequest{Program: figure1(t), N: 8192, Work: 1000, Async: true})
	if code != http.StatusAccepted {
		t.Fatalf("async submit: %d, want 202", code)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	var final JobStatus
	getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID+"?wait=1", &final)
	if final.State != StateCanceled {
		t.Fatalf("after cancel: state %s (%s)", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "canceled") {
		t.Errorf("canceled job error = %q, want it to mention cancellation", final.Error)
	}

	// The workers must come back; a fresh job must run normally.
	deadline := time.Now().Add(10 * time.Second)
	for s.pool.Stats().Free != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("pool free = %d after cancel, want 4", s.pool.Stats().Free)
		}
		time.Sleep(time.Millisecond)
	}
	code, after := postJob(t, ts, SubmitRequest{Program: figure1(t), N: 32})
	if code != http.StatusOK || after.State != StateDone {
		t.Fatalf("submit after cancel: %d %s (%s)", code, after.State, after.Error)
	}
}

// TestHTTPTimeoutBecomes499 checks a job deadline maps to the canceled
// state and the 499 status code on the synchronous path.
func TestHTTPTimeoutBecomes499(t *testing.T) {
	_, ts := newTestServer(t)
	code, st := postJob(t, ts, SubmitRequest{Program: figure1(t), N: 8192, Work: 1000, TimeoutMS: 20})
	if code != 499 {
		t.Fatalf("timed-out submit: %d (%s, %s), want 499", code, st.State, st.Error)
	}
	if st.State != StateCanceled {
		t.Errorf("timed-out submit state %s, want canceled", st.State)
	}
}

// TestHTTPBadRequests pins the 4xx surface.
func TestHTTPBadRequests(t *testing.T) {
	s, ts := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"not json", "{"},
		{"unknown field", `{"prog": "x"}`},
		{"neither program nor graph", `{}`},
		{"both program and graph", `{"program": "x", "graph": "y"}`},
		{"bad mode", `{"program": "program p\nend\n", "mode": "warp"}`},
		{"bad binder", `{"program": "program p\nend\n", "binder": "quantum"}`},
		{"bad fault plan", `{"program": "program p\nend\n", "fault": "meteor:9"}`},
		{"compile error", `{"program": "this is not fortran"}`},
		{"bad graph text", `{"graph": "this is not delirium"}`},
		{"autosplit", `{"program": "program p\nend\n", "autosplit": true}`},
		{"timeout past a Duration", `{"program": "program p\nend\n", "timeout_ms": 4611686018427387904}`},
		{"negative timeout", `{"program": "program p\nend\n", "timeout_ms": -1}`},
		{"omega", `{"program": "program p\nend\n", "omega": 1}`},
		{"negative processors", `{"program": "program p\nend\n", "processors": -3}`},
		{"negative n", `{"program": "program p\nend\n", "n": -1}`},
		{"negative work", `{"program": "program p\nend\n", "work": -1}`},
		{"negative cv", `{"program": "program p\nend\n", "binder": "spin", "cv": -0.5}`},
		{"negative unitwork", `{"program": "program p\nend\n", "binder": "spin", "unitwork": -1}`},
		{"negative depth", `{"program": "program p\nend\n", "options": {"depth": -2}}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", tc.name, resp.StatusCode)
		}
		if body["error"] == "" {
			t.Errorf("%s: no error message in response", tc.name)
		}
	}
	if jc := s.Stats().Jobs; jc.Total != 0 {
		t.Errorf("refused requests registered jobs: %+v", jc)
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestSubmitTaskBound pins the daemon's task-count limit: a count at
// or above the engine's per-operator bound is refused at submission,
// before a binder allocates per task — at n = 1<<40 the array binder
// would otherwise ask for terabytes. The bound holds for the job's
// summed count too: 64 nodes of 1<<23 tasks each would have the array
// binder allocate 4 GiB. The spin binder's count comes from a node's
// tasks= annotation when it has one, so that is checked too, and a
// negative one is refused; a count of zero runs as a zero-task node.
func TestSubmitTaskBound(t *testing.T) {
	s, ts := newTestServer(t)
	const pair = "graph pair\nnode a kind=par\nnode b kind=par\nedge a -> b bytes=8 pertask\n"
	var wide strings.Builder
	wide.WriteString("graph wide\n")
	for i := range 64 {
		fmt.Fprintf(&wide, "node n%d kind=par\n", i)
	}
	cases := []struct {
		name string
		req  SubmitRequest
	}{
		{"n at the bound", SubmitRequest{Graph: pair, N: native.MaxTasks}},
		{"n far above", SubmitRequest{Graph: pair, N: 1 << 40}},
		{"spin tasks= above", SubmitRequest{Graph: "graph sq\nnode a kind=par tasks=n*n\n",
			Binder: "spin", N: 1 << 13}},
		{"summed over nodes", SubmitRequest{Graph: wide.String(), N: 1 << 23}},
		{"spin summed over nodes", SubmitRequest{Graph: wide.String(), Binder: "spin", N: 1 << 23}},
		{"spin tasks= negative", SubmitRequest{Graph: "graph neg\nnode a kind=par tasks=n-65\n", Binder: "spin", N: 64}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if j, err := s.Submit(c.req); err == nil {
				t.Fatalf("Submit accepted the job (state %s)", j.Status().State)
			}
			if code, st := postJob(t, ts, c.req); code != http.StatusBadRequest {
				t.Fatalf("POST: %d (state %q), want 400", code, st.State)
			}
		})
	}
	if code, st := postJob(t, ts, SubmitRequest{Graph: pair, N: 64}); code != http.StatusOK {
		t.Fatalf("a small job: %d (%s)", code, st.State)
	}
	// A tasks= count of zero is a zero-task operator, not a refusal.
	zero := SubmitRequest{Graph: "graph zero\nnode a kind=par\nnode z kind=par tasks=n-64\nnode b kind=par\nedge a -> z\nedge z -> b\n",
		Binder: "spin", N: 64, UnitWork: 1}
	if code, st := postJob(t, ts, zero); code != http.StatusOK || st.State != StateDone {
		t.Fatalf("a job with a zero-task node: %d %s (%s)", code, st.State, st.Error)
	}
	zero.Graph = strings.Replace(zero.Graph, "n-64", "n-65", 1)
	if _, err := s.Submit(zero); err == nil || !strings.Contains(err.Error(), "node z has -1 tasks") {
		t.Fatalf("a negative tasks= count: error %v, want one naming node z", err)
	}
}

// TestHTTPBodyBound pins the daemon's request-size limit: a valid
// submission whose program carries more than maxRequestBytes of
// comment is answered 413 without being decoded.
func TestHTTPBodyBound(t *testing.T) {
	_, ts := newTestServer(t)
	var src strings.Builder
	for src.Len() <= maxRequestBytes {
		src.WriteString("! " + strings.Repeat("x", 62) + "\n")
	}
	src.WriteString(figure1(t))
	code, _ := postJob(t, ts, SubmitRequest{Program: src.String(), N: 64})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("a %d-byte program: %d, want 413", src.Len(), code)
	}
}

// TestHTTPHealthz pins the liveness endpoint.
func TestHTTPHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var body map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz: %d %v", code, body)
	}
}

// TestConcurrentSubmissionsShareOnePool floods the daemon with
// concurrent in-process submissions and checks every digest agrees —
// the multi-tenant correctness contract, race-checked under -race.
func TestConcurrentSubmissionsShareOnePool(t *testing.T) {
	s, _ := newTestServer(t)
	src := figure1(t)
	const jobs = 16
	type outcome struct {
		st  JobStatus
		err error
	}
	results := make(chan outcome, jobs)
	for i := 0; i < jobs; i++ {
		go func() {
			j, err := s.Submit(SubmitRequest{Program: src, N: 64, Processors: 2})
			if err != nil {
				results <- outcome{err: err}
				return
			}
			results <- outcome{st: j.Status()}
		}()
	}
	digests := map[string]int{}
	for i := 0; i < jobs; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", o.st.ID, o.st.State, o.st.Error)
		}
		digests[o.st.Digest]++
	}
	if len(digests) != 1 {
		t.Errorf("concurrent submissions produced %d distinct digests: %v", len(digests), digests)
	}
	if st := s.Stats(); st.Cache.Entries != 1 || st.Cache.Misses != 1 || st.Cache.Hits != jobs-1 {
		t.Errorf("cache stats = %+v, want 1 entry, 1 miss, %d hits", st.Cache, jobs-1)
	}
}

// TestCompileOptionsKeepDefaults pins the options object's partial
// form: a field it leaves out keeps compile.DefaultOptions()'s value, so
// {"depth": 1} names the default compile and hits the graph a default
// submission cached, while {"split": false} still compiles without the
// split transformation.
func TestCompileOptionsKeepDefaults(t *testing.T) {
	s, ts := newTestServer(t)
	src := figure1(t)
	code, def := postJob(t, ts, map[string]any{"program": src, "n": 64})
	if code != http.StatusOK || def.State != StateDone {
		t.Fatalf("default submit: %d %s (%s)", code, def.State, def.Error)
	}

	code, depth := postJob(t, ts, map[string]any{"program": src, "n": 64, "options": map[string]any{"depth": 1}})
	if code != http.StatusOK || depth.State != StateDone {
		t.Fatalf(`{"depth": 1} submit: %d %s (%s)`, code, depth.State, depth.Error)
	}
	if depth.Cache != "hit" || depth.Digest != def.Digest {
		t.Errorf(`{"depth": 1}: cache %s, digest %.12s; want the default's hit, %.12s`, depth.Cache, depth.Digest, def.Digest)
	}

	code, flat := postJob(t, ts, map[string]any{"program": src, "n": 64, "options": map[string]any{"split": false}})
	if code != http.StatusOK || flat.State != StateDone {
		t.Fatalf(`{"split": false} submit: %d %s (%s)`, code, flat.State, flat.Error)
	}
	if flat.Cache != "miss" {
		t.Errorf(`{"split": false}: cache %s, want miss`, flat.Cache)
	}
	opts := core.DefaultOptions()
	opts.EnableSplit = false
	want, err := core.CompileSource(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := s.Job(flat.ID)
	if !ok {
		t.Fatalf("job %s not in the registry", flat.ID)
	}
	if got := j.graph.Encode(); got != want.Graph.Encode() {
		t.Errorf("{\"split\": false} ran:\n%s\nwant the unsplit compile:\n%s", got, want.Graph.Encode())
	}
}

// TestServerCloseReleasesEverything checks Close cancels in-flight
// jobs, rejects new ones, and leaves no goroutines behind.
func TestServerCloseReleasesEverything(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	s := New(Config{PoolSize: 3, DefaultMode: rts.ModeSplit})
	src := figure1(t)
	if _, err := s.Submit(SubmitRequest{Program: src, N: 32}); err != nil {
		t.Fatal(err)
	}
	// A long async job Close must cancel rather than wait out.
	j, err := s.Submit(SubmitRequest{Program: src, N: 8192, Work: 1000, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if st := j.Status(); st.State != StateCanceled && st.State != StateDone {
		t.Errorf("async job after Close: %s", st.State)
	}
	if _, err := s.Submit(SubmitRequest{Program: src, N: 32}); err == nil {
		t.Error("Submit after Close succeeded")
	}

	for i := 0; i < 100; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before server, %d after Close", base, runtime.NumGoroutine())
}

// TestAdmissionEqualizesFinishingTimes pins the cross-job allocator:
// with one heavy job running, a light newcomer's grant leaves the
// heavy job the larger share, and every decision is logged.
func TestAdmissionEqualizesFinishingTimes(t *testing.T) {
	heavy := jobLoad{id: "heavy", tasks: 10000}
	light := jobLoad{id: "light", tasks: 100}
	d := admit(light, []jobLoad{heavy}, 8, 0)
	if d.Grant < 1 || d.Grant > 8 {
		t.Fatalf("grant %d out of range", d.Grant)
	}
	if d.Targets["heavy"] <= d.Targets["light"] {
		t.Errorf("targets %v: heavy job should get more processors than light one", d.Targets)
	}
	if d.Grant != d.Targets["light"] {
		t.Errorf("grant %d != light job's target %d", d.Grant, d.Targets["light"])
	}

	// A requested cap clamps the grant.
	capped := admit(light, []jobLoad{heavy}, 8, 1)
	if capped.Grant != 1 {
		t.Errorf("capped grant %d, want 1", capped.Grant)
	}

	// An empty machine gives a solo job everything.
	solo := admit(jobLoad{id: "solo", tasks: 50}, nil, 8, 0)
	if solo.Grant != 8 {
		t.Errorf("solo grant %d, want 8", solo.Grant)
	}
}

// TestAllocLogRing pins the bounded decision log.
func TestAllocLogRing(t *testing.T) {
	var l allocLog
	for i := 0; i < 100; i++ {
		l.add(AllocDecision{Job: fmt.Sprintf("job-%d", i)})
	}
	snap := l.snapshot()
	if len(snap) != 64 {
		t.Fatalf("snapshot length %d, want 64", len(snap))
	}
	if snap[0].Job != "job-36" || snap[63].Job != "job-99" {
		t.Errorf("snapshot spans %s..%s, want job-36..job-99 oldest-first", snap[0].Job, snap[63].Job)
	}
}

// flood runs n tiny synchronous jobs to completion, four callers at a
// time, and fails the test on any that does not finish done.
func flood(t *testing.T, s *Server, src string, n int) {
	t.Helper()
	var wg sync.WaitGroup
	var left atomic.Int64
	left.Store(int64(n))
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for left.Add(-1) >= 0 {
				j, err := s.Submit(SubmitRequest{Program: src, N: 16})
				if err != nil {
					t.Error(err)
					return
				}
				if st := j.Status(); st.State != StateDone {
					t.Errorf("job %s: %s (%s)", st.ID, st.State, st.Error)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// httpCode issues a body-less request and returns only the status.
func httpCode(t *testing.T, method, url string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRegistryBounded pins retention: the registry holds every job that
// is not terminal plus the last retainTerminal that are, an evicted id
// answers 410 and a never-issued one 404, and no amount of eviction
// touches a job that is still queued or running.
func TestRegistryBounded(t *testing.T) {
	s, ts := newTestServer(t)
	src := figure1(t)
	jobURL := ts.URL + "/api/v1/jobs/"

	// Eviction follows completion order, and flood's four submitters
	// may finish job-1 after later ids; finishing it alone first makes
	// it the oldest terminal job.
	flood(t, s, src, 1)
	flood(t, s, src, retainTerminal+49)
	if jc := s.Stats().Jobs; jc.Total != retainTerminal || jc.Done != retainTerminal+50 || jc.Queued != 0 || jc.Running != 0 {
		t.Fatalf("after %d jobs: counts %+v, want total %d (the cap), done %d, none live",
			retainTerminal+50, jc, retainTerminal, retainTerminal+50)
	}
	if _, ok := s.Job("job-1"); ok {
		t.Error("Server.Job(job-1) hit; the oldest terminal job should be evicted")
	}
	if _, ok := s.Job(fmt.Sprintf("job-%d", retainTerminal+50)); !ok {
		t.Error("the most recent job is missing from the registry")
	}
	for _, c := range []struct {
		method, path string
		want         int
	}{
		{"GET", "job-1", http.StatusGone},
		{"GET", "job-1?wait=1", http.StatusGone},
		{"POST", "job-1/cancel", http.StatusGone},
		{"GET", fmt.Sprintf("job-%d?wait=1", retainTerminal+50), http.StatusOK},
		{"GET", "job-999999", http.StatusNotFound},
		{"POST", "job-999999/cancel", http.StatusNotFound},
		{"GET", "job-0", http.StatusNotFound},
		{"GET", "job-01", http.StatusNotFound},
		{"GET", "job-+1", http.StatusNotFound},
		{"GET", "1", http.StatusNotFound},
	} {
		if got := httpCode(t, c.method, jobURL+c.path); got != c.want {
			t.Errorf("%s %s: %d, want %d", c.method, c.path, got, c.want)
		}
	}

	// One job held queued (registered, never admitted) and one held
	// running (admitted, not yet executed): both must outlive any number
	// of completions around them.
	queued, err := s.prepare(SubmitRequest{Program: src, N: 16})
	if err != nil {
		t.Fatal(err)
	}
	running, err := s.prepare(SubmitRequest{Program: src, N: 16})
	if err != nil {
		t.Fatal(err)
	}
	grant := s.admitJob(running)
	flood(t, s, src, 2*retainTerminal+50)
	if jc := s.Stats().Jobs; jc.Total != retainTerminal+2 || jc.Queued != 1 || jc.Running != 1 {
		t.Fatalf("with two held jobs: counts %+v, want total %d, 1 queued, 1 running", jc, retainTerminal+2)
	}
	for _, h := range []struct {
		j     *Job
		state string
	}{{queued, StateQueued}, {running, StateRunning}} {
		if got, ok := s.Job(h.j.ID()); !ok || got != h.j {
			t.Fatalf("%s job %s was evicted", h.state, h.j.ID())
		}
		var st JobStatus
		if code := getJSON(t, jobURL+h.j.ID(), &st); code != http.StatusOK || st.State != h.state {
			t.Errorf("%s: HTTP %d state %s, want 200 %s", h.j.ID(), code, st.State, h.state)
		}
		// Still cancellable, and the cancellation lands when the job
		// proceeds.
		if code := httpCode(t, "POST", jobURL+h.j.ID()+"/cancel"); code != http.StatusOK {
			t.Errorf("cancel %s: HTTP %d, want 200", h.j.ID(), code)
		}
	}
	s.runJob(queued)
	s.execute(running, grant)
	for _, j := range []*Job{queued, running} {
		if st := j.Status(); st.State != StateCanceled {
			t.Errorf("%s after cancel: %s (%s), want canceled", st.ID, st.State, st.Error)
		}
	}
	if jc := s.Stats().Jobs; jc.Total != retainTerminal || jc.Queued != 0 || jc.Running != 0 || jc.Canceled != 2 {
		t.Errorf("after the held jobs finish: counts %+v, want total %d, none live, 2 canceled", jc, retainTerminal)
	}
}

// TestAdmissionSeesOnlyRunning pins what admission balances across: the
// jobs running now, whatever the daemon has served before, and a job is
// visible to its neighbours from the moment its own admission returns.
func TestAdmissionSeesOnlyRunning(t *testing.T) {
	s, _ := newTestServer(t)
	src := figure1(t)
	flood(t, s, src, 2*retainTerminal)

	decision := func(j *Job) AllocDecision {
		t.Helper()
		log := s.alloc.snapshot()
		for i := len(log) - 1; i >= 0; i-- {
			if log[i].Job == j.ID() {
				return log[i]
			}
		}
		t.Fatalf("no admission decision logged for %s", j.ID())
		return AllocDecision{}
	}

	lone, err := s.Submit(SubmitRequest{Program: src, N: 16})
	if err != nil {
		t.Fatal(err)
	}
	if d := decision(lone); d.Running != 1 || d.Grant != s.pool.Size() {
		t.Errorf("lone job after %d finished ones: balanced across %d jobs, grant %d; want 1 job, the whole pool (%d)",
			2*retainTerminal, d.Running, d.Grant, s.pool.Size())
	}

	// Two admissions at once: whichever takes the lock second must see
	// the first.
	a, err := s.prepare(SubmitRequest{Program: src, N: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.prepare(SubmitRequest{Program: src, N: 16})
	if err != nil {
		t.Fatal(err)
	}
	grants := map[*Job]int{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, j := range []*Job{a, b} {
		wg.Add(1)
		go func(j *Job) {
			defer wg.Done()
			g := s.admitJob(j)
			mu.Lock()
			grants[j] = g
			mu.Unlock()
		}(j)
	}
	wg.Wait()
	if jc := s.Stats().Jobs; jc.Running != 2 || jc.Queued != 0 {
		t.Errorf("two admitted jobs: counts %+v, want 2 running, 0 queued", jc)
	}
	da, db := decision(a), decision(b)
	if da.Running+db.Running != 3 {
		t.Errorf("concurrent admissions balanced across %d and %d jobs; want 1 and 2 (one sees the other)", da.Running, db.Running)
	}
	for _, j := range []*Job{a, b} {
		s.execute(j, grants[j])
		if st := j.Status(); st.State != StateDone {
			t.Errorf("%s: %s (%s)", st.ID, st.State, st.Error)
		}
	}
	if jc := s.Stats().Jobs; jc.Running != 0 {
		t.Errorf("after both finish: %d running, want 0", jc.Running)
	}
}

// TestYieldedWorkerInStats runs a long job alone on the daemon's pool,
// then a one-worker job beside it: the long job hands it a worker, the
// short job finishes while the long one runs, /stats counts the yield,
// and each job's Allocated stays the initial grant admission issued.
func TestYieldedWorkerInStats(t *testing.T) {
	s, ts := newTestServer(t)
	src := figure1(t)
	code, long := postJob(t, ts, SubmitRequest{Program: src, N: 8192, Work: 1000, Async: true})
	if code != http.StatusAccepted {
		t.Fatalf("async submit: %d, want 202", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.pool.Stats().Free != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the long job never leased the whole pool")
		}
		time.Sleep(time.Millisecond)
	}
	code, short := postJob(t, ts, SubmitRequest{Program: src, N: 64, Processors: 1})
	if code != http.StatusOK || short.State != StateDone {
		t.Fatalf("short job: %d %s (%s)", code, short.State, short.Error)
	}
	if short.Allocated != 1 {
		t.Errorf("short job allocated %d, want its initial grant 1", short.Allocated)
	}
	var stats Stats
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Pool.Yields != 1 {
		t.Errorf("stats pool.yields = %d, want 1", stats.Pool.Yields)
	}
	// The long job has done its part; cancel it rather than wait.
	j, ok := s.Job(long.ID)
	if !ok {
		t.Fatalf("job %s not found", long.ID)
	}
	j.Cancel()
	<-j.Done()
	if final := j.Status(); final.Allocated != 4 {
		t.Errorf("long job allocated %d after yielding a worker, want its initial grant 4", final.Allocated)
	}
}
