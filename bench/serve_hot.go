package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/delirium"
	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/serve"
)

// serveN is the daemon's default task count per operator; the job leaves
// "n" out and the local reference run must use the same.
const serveN = 2048

// serveHot is the product surface under many tiny jobs: every timed op
// is a graph-cache hit, so HTTP, admission, binding, the pool lease and
// the digest are the cost, and the compiler and the kernels are not.
type serveHot struct {
	srv     *serve.Server
	ts      *httptest.Server
	client  *http.Client
	req     serve.SubmitRequest
	body    []byte // req as JSON
	traced  []byte // req with "trace": true, what a traced op sends
	graph   *delirium.Graph
	binding rts.Binding
	want    string
	p       int
	misses  int64 // cache misses set-up caused; none may follow
}

// figure1 reads the paper's running example from the checkout.
func figure1() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(filepath.Join(root, "examples", "figure1.f"))
	return string(b), err
}

func setupServeHot(cfg config) (*instance, error) {
	text, err := figure1()
	if err != nil {
		return nil, err
	}
	w := &serveHot{p: cfg.p}
	w.req = serve.SubmitRequest{Program: text, Binder: "kernel", Mode: "split"}
	if w.body, err = json.Marshal(w.req); err != nil {
		return nil, err
	}
	withTrace := w.req
	withTrace.Trace = true
	if w.traced, err = json.Marshal(withTrace); err != nil {
		return nil, err
	}

	// The reference digest: a local one-shot native run of the same
	// program and kernel.
	out, err := core.CompileSource(text, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	w.graph = out.Graph
	params := rts.KernelParams{}
	params.SetInt("n", serveN)
	params.SetInt("work", 1)
	w.binding = rts.NamedBinding("array", params)
	bound, err := rts.Bind(w.graph, w.binding)
	if err != nil {
		return nil, err
	}
	if _, err := (native.Backend{}).Run(w.graph, bound, rts.RunOpts{Processors: w.p, Mode: rts.ModeSplit}); err != nil {
		return nil, err
	}
	w.want, _ = bound.Digest()

	w.srv = serve.New(serve.Config{PoolSize: w.p})
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = w.ts.Client()
	// One kept-alive connection per client; the default keeps two.
	w.client.Transport.(*http.Transport).MaxIdleConnsPerHost = w.p
	// One untimed submission fills the graph cache.
	if _, _, err := w.post(nil, -1); err != nil {
		w.close()
		return nil, err
	}
	w.misses = w.srv.Stats().Cache.Misses
	if cfg.corrupt {
		w.want = "corrupt"
	}
	return &instance{
		clients: w.p,
		op: func(tr *tracer, _ int) (time.Duration, error) {
			root := tr.begin("op", -1)
			defer tr.end(root)
			_, lat, err := w.post(tr, root)
			return lat, err
		},
		layers: w.layers,
		finish: func() error {
			if c := w.srv.Stats().Cache; c.Misses != w.misses {
				return fmt.Errorf("serve: %d graph-cache misses in the window, want none", c.Misses-w.misses)
			}
			return nil
		},
		close: w.close,
	}, nil
}

func (w *serveHot) close() {
	w.ts.Close()
	w.srv.Close()
}

// post submits one synchronous job over HTTP and verifies the reply. A
// traced op asks the daemon for the job's event trace.
func (w *serveHot) post(tr *tracer, parent int) (serve.JobStatus, time.Duration, error) {
	body := w.body
	if tr != nil {
		body = w.traced
	}
	var st serve.JobStatus
	t0 := time.Now()
	s := tr.begin("http.Post", parent)
	resp, err := w.client.Post(w.ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(s)
		return st, time.Since(t0), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(s)
	if err == nil {
		s = tr.begin("json.Unmarshal", parent)
		err = json.Unmarshal(raw, &st)
		tr.end(s)
	}
	lat := time.Since(t0)
	if err != nil {
		return st, lat, err
	}
	if tr != nil {
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if json.Unmarshal([]byte(st.TraceJSON), &doc) == nil {
			tr.events.Add(int64(len(doc.TraceEvents)))
		}
	}
	return st, lat, w.verify(resp.StatusCode, st)
}

func (w *serveHot) verify(code int, st serve.JobStatus) error {
	switch {
	case code != http.StatusOK:
		return fmt.Errorf("serve: HTTP %d: %s", code, st.Error)
	case st.State != serve.StateDone:
		return fmt.Errorf("serve: job %s is %s: %s", st.ID, st.State, st.Error)
	case st.Digest != w.want:
		return fmt.Errorf("serve: job %s digest %s, want %s", st.ID, st.Digest, w.want)
	}
	return nil
}

// layers takes the daemon's path apart from outside: the phases each
// reply reports, the same submissions without HTTP, one client alone,
// and the pool and the binder without the daemon.
func (w *serveHot) layers(tr *tracer, budget time.Duration, m metrics) error {
	var mu sync.Mutex
	before := w.srv.Stats().Cache

	// P clients over HTTP.
	var queue, run, engine, httpShare, grant []float64
	err := callers(w.p, budget*3/10, func() error {
		root := tr.begin("serve.http", -1)
		st, lat, err := w.post(nil, -1)
		tr.end(root)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		queue = append(queue, st.QueueSeconds*1e3)
		run = append(run, st.RunSeconds*1e3)
		engine = append(engine, st.Result.Makespan*1e3)
		httpShare = append(httpShare, ms(lat)-(st.QueueSeconds+st.RunSeconds)*1e3)
		grant = append(grant, float64(st.Allocated))
		return nil
	})
	if err != nil {
		return err
	}

	// P callers of Submit, in process.
	var submit []float64
	err = callers(w.p, budget*2/10, func() error {
		root := tr.begin("serve.Submit", -1)
		t0 := time.Now()
		j, err := w.srv.Submit(w.req)
		lat := time.Since(t0)
		tr.end(root)
		if err != nil {
			return err
		}
		if err := w.verify(http.StatusOK, j.Status()); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		submit = append(submit, ms(lat))
		return nil
	})
	if err != nil {
		return err
	}

	// One client alone: the pool idles between jobs.
	var solo []float64
	err = callers(1, budget*3/10, func() error {
		root := tr.begin("serve.solo", -1)
		_, lat, err := w.post(nil, -1)
		tr.end(root)
		solo = append(solo, ms(lat))
		return err
	})
	if err != nil {
		return err
	}
	after := w.srv.Stats()

	// The binder and the warm pool, without the daemon.
	pool := native.NewPool(w.p)
	defer pool.Close()
	var bind, poolRun []float64
	err = callers(1, budget*2/10, func() error {
		root := tr.begin("rts.Bind", -1)
		t0 := time.Now()
		bound, err := rts.Bind(w.graph, w.binding)
		bind = append(bind, us(time.Since(t0)))
		tr.end(root)
		if err != nil {
			return err
		}
		root = tr.begin("native.Pool.Run", -1)
		t0 = time.Now()
		_, err = pool.Run(w.graph, bound, rts.RunOpts{Processors: w.p, Mode: rts.ModeSplit})
		poolRun = append(poolRun, ms(time.Since(t0)))
		tr.end(root)
		return err
	})
	if err != nil {
		return err
	}

	m.set("serve.queue_ms_p50", median(queue))
	m.set("serve.run_ms_p50", median(run))
	m.set("serve.run_ms_p90", quantile(run, 0.9))
	m.set("serve.engine_ms_p50", median(engine))
	m.set("serve.http_ms_p50", median(httpShare))
	m.set("serve.submit_ms_p50", median(submit))
	m.set("serve.solo_p50_ms", median(solo))
	m.set("serve.solo_p90_ms", quantile(solo, 0.9))
	hits := float64(after.Cache.Hits - before.Hits)
	m.set("serve.cache_hit_share", hits/(hits+float64(after.Cache.Misses-before.Misses)))
	m.set("serve.grant_mean", mean(grant))
	m.set("serve.jobs_retained", float64(after.Jobs.Total))
	m.set("rts.bind_us", median(bind))
	m.set("native.pool_run_ms", median(poolRun))
	return nil
}
