// Package serve is the orchestration daemon: a long-running,
// multi-tenant execution service for Delirium graphs. One warm
// native.Pool of persistent workers lives for the daemon's lifetime;
// submitted programs are compiled once into a content-addressed graph
// cache and executed as jobs multiplexed onto the shared pool, with
// worker grants decided by the paper's finishing-time-equalizing
// allocator applied across jobs (see admission.go). The HTTP surface
// (http.go) is a thin JSON layer over Server's methods, so embedders
// and tests drive the same code paths as network clients.
//
// The lifecycle of a submission:
//
//	submit → resolve graph (cache hit or compile) → job registered
//	       → admission (initial worker grant) → pool leases workers (FIFO)
//	       → engine executes on persistent goroutines → result + digest
//
// A running job's lease shrinks toward a job waiting on the pool: a
// worker beyond its first leaves at its next chunk boundary when that
// lets the waiter start (Stats.Pool.Yields counts them).
//
// Each job runs under its own context (cancel endpoint, optional
// deadline) and its own RunOpts — fault plans and trace sinks are
// per-job and cannot perturb neighbours sharing the pool.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"orchestra/internal/compile"
	"orchestra/internal/delirium"
	"orchestra/internal/fault"
	"orchestra/internal/native"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
	"orchestra/internal/trace"
)

// Config sizes the daemon.
type Config struct {
	// PoolSize is the warm pool's worker count (<= 0: GOMAXPROCS).
	PoolSize int
	// DefaultMode applies when a submission omits "mode".
	DefaultMode rts.Mode
}

// retainTerminal is how many finished jobs the registry keeps for status
// reads, most recently finished last out. A daemon's memory and its
// per-job cost must not grow with the jobs it has ever served; a client
// that wants a result later than this many completions polls sooner.
const retainTerminal = 1024

// Server is the daemon state: the warm pool, the graph cache, and the
// job registry. Create with New, dispose with Close.
type Server struct {
	cfg   Config
	pool  *native.Pool
	cache *graphCache
	alloc allocLog

	mu sync.Mutex
	// jobs is the registry: every job that is not terminal yet, plus the
	// last retainTerminal that are. running holds the admitted, unfinished
	// ones — what admission balances the pool across — and pending counts
	// those registered but not yet admitted, so neither admission nor
	// Stats ever walks the registry. terminal is the eviction ring, in
	// completion order; termNext is its oldest entry once it is full.
	jobs     map[string]*Job
	running  map[*Job]struct{}
	pending  int
	terminal []*Job
	termNext int
	seq      int
	closed   bool
	wg       sync.WaitGroup

	done, failed, canceled int64
	// Pipeline counters, accumulated over every completed job's result:
	// cache-chain activity on the pool (see trace.Result).
	chainHits, chainSpills, chainFallbacks int64
	started                                time.Time
}

// New starts a daemon: the pool's worker goroutines spin up here and
// live until Close.
func New(cfg Config) *Server {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = runtime.GOMAXPROCS(0)
	}
	return &Server{
		cfg:     cfg,
		pool:    native.NewPool(cfg.PoolSize),
		cache:   newGraphCache(),
		jobs:    map[string]*Job{},
		running: map[*Job]struct{}{},
		started: time.Now(),
	}
}

// Close cancels every unfinished job, waits for async submissions to
// drain, and stops the pool's workers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var live []*Job
	for _, j := range s.jobs {
		select {
		case <-j.doneCh:
		default:
			live = append(live, j)
		}
	}
	s.mu.Unlock()
	for _, j := range live {
		j.cancel()
	}
	s.wg.Wait()
	s.pool.Close()
}

// SubmitRequest is one job submission. Exactly one of Program (mini-
// Fortran source, compiled through the graph cache) or Graph (Delirium
// coordination text, decoded through the cache) must be set.
type SubmitRequest struct {
	Program string          `json:"program,omitempty"`
	Graph   string          `json:"graph,omitempty"`
	Options *CompileOptions `json:"options,omitempty"`

	// Binder selects how graph nodes become executable work: "kernel"
	// (default — real array kernels with a result digest) or "spin"
	// (synthetic CPU-bound tasks, log-normal durations).
	Binder string `json:"binder,omitempty"`
	// N is the per-operator task count (default 2048). The job's tasks
	// summed over its nodes must stay below native.MaxTasks.
	N int `json:"n,omitempty"`
	// Work is the kernel binder's function-evaluation rounds per task
	// (default 1).
	Work int `json:"work,omitempty"`
	// CV (default 1), Seed and UnitWork (default 4000) parameterize the
	// spin binder. N, Work, CV, UnitWork and Options.Depth take their
	// default at zero; a negative value is refused.
	CV       float64 `json:"cv,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	UnitWork int     `json:"unitwork,omitempty"`

	// Mode is static, taper, or split (default: the server's).
	Mode string `json:"mode,omitempty"`
	// Processors caps the job's worker grant (0 = allocator's choice).
	Processors int `json:"processors,omitempty"`
	// Fault injects a per-job fault plan (internal/fault syntax).
	Fault string `json:"fault,omitempty"`
	// TimeoutMS bounds the job's total time (queue + run); 0 = none.
	// A negative value, or one no time.Duration holds, is refused.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Trace captures the job's execution trace and returns it as a
	// Chrome trace-event JSON string in the job status.
	Trace bool `json:"trace,omitempty"`
	// Async returns the job id immediately instead of waiting for the
	// result; poll or wait on the status endpoint.
	Async bool `json:"async,omitempty"`
}

// CompileOptions is the submission view of compile.Options. A field
// the submission leaves out keeps compile.DefaultOptions()'s value.
type CompileOptions struct {
	Fuse     bool  `json:"fuse,omitempty"`
	Split    *bool `json:"split,omitempty"`
	Pipeline *bool `json:"pipeline,omitempty"`
	Depth    int   `json:"depth,omitempty"`
}

func (o *CompileOptions) resolve() compile.Options {
	c := compile.DefaultOptions()
	if o == nil {
		return c
	}
	c.EnableFusion = o.Fuse
	if o.Split != nil {
		c.EnableSplit = *o.Split
	}
	if o.Pipeline != nil {
		c.EnablePipeline = *o.Pipeline
	}
	if o.Depth > 0 {
		c.PipelineDepth = o.Depth
	}
	return c
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job is one submission's lifecycle. All mutation happens under mu;
// Status snapshots it for the API.
type Job struct {
	id       string
	server   *Server
	entry    *cacheEntry
	cacheHit bool
	req      SubmitRequest
	mode     rts.Mode
	plan     *fault.Plan
	tasks    int

	ctx    context.Context
	cancel context.CancelFunc
	doneCh chan struct{}

	mu        sync.Mutex
	state     string
	grant     int
	result    *trace.Result
	digest    string
	traceJSON string
	errMsg    string
	submitted time.Time
	startedAt time.Time
	finished  time.Time
}

// JobStatus is the API snapshot of a job.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Graph string `json:"graph"`
	// Cache reports whether this job's graph came out of the cache
	// ("hit") or was compiled/decoded by it ("miss").
	Cache string `json:"cache"`
	Mode  string `json:"mode"`
	// Requested is the submission's processor cap, Allocated the
	// initial worker grant admission issued (0 until running). A running
	// job may hand workers beyond its first to a job waiting on the pool
	// (native.Pool), so it can finish on fewer than Allocated.
	Requested int `json:"requested"`
	Allocated int `json:"allocated"`
	// QueueSeconds is submit→start, RunSeconds start→finish.
	QueueSeconds float64       `json:"queue_seconds"`
	RunSeconds   float64       `json:"run_seconds"`
	Result       *trace.Result `json:"result,omitempty"`
	// Digest fingerprints the kernel binder's final arrays (SHA-256,
	// bitwise); empty for the spin binder.
	Digest string `json:"digest,omitempty"`
	// TraceJSON is the Chrome trace-event export when Trace was set.
	TraceJSON string `json:"trace_json,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Graph:     j.entry.graph.Name,
		Cache:     "miss",
		Mode:      j.mode.String(),
		Requested: j.req.Processors,
		Allocated: j.grant,
		Result:    j.result,
		Digest:    j.digest,
		TraceJSON: j.traceJSON,
		Error:     j.errMsg,
	}
	if j.cacheHit {
		st.Cache = "hit"
	}
	if !j.startedAt.IsZero() {
		st.QueueSeconds = j.startedAt.Sub(j.submitted).Seconds()
		if !j.finished.IsZero() {
			st.RunSeconds = j.finished.Sub(j.startedAt).Seconds()
		}
	}
	return st
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Cancel requests cooperative cancellation: a queued job aborts its
// pool wait, a running one stops at the next chunk boundaries.
func (j *Job) Cancel() { j.cancel() }

// Submit validates a request, resolves its graph through the cache,
// and starts the job: inline for synchronous submissions (the call
// returns when the job is terminal), on a daemon goroutine for async
// ones (the call returns once the job is registered).
func (s *Server) Submit(req SubmitRequest) (*Job, error) {
	j, err := s.prepare(req)
	if err != nil {
		return nil, err
	}
	if req.Async {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.runJob(j)
		}()
		return j, nil
	}
	s.runJob(j)
	return j, nil
}

// prepare builds and registers a job without running it.
func (s *Server) prepare(req SubmitRequest) (*Job, error) {
	if (req.Program == "") == (req.Graph == "") {
		return nil, fmt.Errorf("serve: submit exactly one of program or graph")
	}
	mode := s.cfg.DefaultMode
	if req.Mode != "" {
		m, err := rts.ParseMode(req.Mode)
		if err != nil {
			return nil, err
		}
		mode = m
	}
	var plan *fault.Plan
	if req.Fault != "" {
		p, err := fault.Parse(req.Fault)
		if err != nil {
			return nil, err
		}
		plan = p
	}
	switch req.Binder {
	case "", "kernel", "spin":
	default:
		return nil, fmt.Errorf("serve: unknown binder %q (valid: kernel, spin)", req.Binder)
	}
	negative := ""
	switch {
	case req.N < 0:
		negative = "n"
	case req.Work < 0:
		negative = "work"
	case req.CV < 0:
		negative = "cv"
	case req.UnitWork < 0:
		negative = "unitwork"
	case req.Options != nil && req.Options.Depth < 0:
		negative = "options.depth"
	}
	if negative != "" {
		return nil, fmt.Errorf("serve: %s is negative (0 or absent takes the default)", negative)
	}
	if req.N == 0 {
		req.N = 2048
	}
	if req.Work == 0 {
		req.Work = 1
	}
	if req.CV == 0 {
		req.CV = 1
	}
	if req.UnitWork == 0 {
		req.UnitWork = 4000
	}
	if err := (rts.RunOpts{Mode: mode, Processors: req.Processors}).Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if req.TimeoutMS < 0 || int64(req.TimeoutMS) > int64(math.MaxInt64/time.Millisecond) {
		return nil, fmt.Errorf("serve: timeout_ms %d is negative or longer than a time.Duration holds", req.TimeoutMS)
	}
	if req.Processors > s.pool.Size() {
		req.Processors = s.pool.Size()
	}

	var entry *cacheEntry
	var hit bool
	var err error
	if req.Program != "" {
		entry, hit, err = s.cache.compileKeyed(req.Program, req.Options.resolve())
	} else {
		entry, hit, err = s.cache.decodeKeyed(req.Graph)
	}
	if err != nil {
		return nil, err
	}
	g := entry.graph
	// Binders allocate per task before the engine sees the graph — the
	// array binder n values for every node, the spin binder a duration
	// per task — so the engine's task bound is enforced here, on the
	// job's summed count, before any of it.
	count := func(*delirium.Node) int { return req.N }
	if req.Binder == "spin" {
		if count, err = native.TaskCount(kernelBinding(req).binding().Params, g); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	tasks := 0
	for _, nd := range g.Nodes {
		c := count(nd)
		if c >= native.MaxTasks-tasks {
			return nil, fmt.Errorf("serve: the job's task count reaches the engine's task bound %d at node %s", native.MaxTasks, nd.Name)
		}
		tasks += c
	}

	ctx := context.Background()
	var cancel context.CancelFunc
	if req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}

	j := &Job{
		server:    s,
		entry:     entry,
		cacheHit:  hit,
		req:       req,
		mode:      mode,
		plan:      plan,
		tasks:     tasks,
		ctx:       ctx,
		cancel:    cancel,
		doneCh:    make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("serve: server is closed")
	}
	s.seq++
	j.id = jobPrefix + strconv.Itoa(s.seq)
	s.jobs[j.id] = j
	s.pending++
	s.mu.Unlock()
	return j, nil
}

// runJob carries a prepared job to a terminal state: admission, binder
// construction, pool execution, digest.
func (s *Server) runJob(j *Job) {
	defer j.cancel() // release the context's timer resources
	s.execute(j, s.admitJob(j))
}

// bindingKey is a request's kernel binding in comparable form: the
// registered family it names and the parameters that family reads.
// Equal keys bind a graph to equal kernels, so a key also names the
// idle Bounds a job may take (cacheEntry.idle).
type bindingKey struct {
	kernel  string
	n, work int
	// cv is the float's bits: a map key must equal itself, and NaN
	// does not.
	cv       uint64
	seed     uint64
	unitwork int
}

// kernelBinding names the registered kernel family a request binds and
// its parameters. The request's binder names map onto the families
// ("kernel" predates the registry and aliases "array").
func kernelBinding(req SubmitRequest) bindingKey {
	if req.Binder == "spin" {
		return bindingKey{kernel: "spin", n: req.N, cv: math.Float64bits(req.CV), seed: req.Seed, unitwork: req.UnitWork}
	}
	return bindingKey{kernel: "array", n: req.N, work: req.Work}
}

// binding is k in the registry's form.
func (k bindingKey) binding() rts.Binding {
	params := rts.KernelParams{}
	params.SetInt("n", k.n)
	if k.kernel == "spin" {
		params.SetInt("tasks", k.n)
		params.SetFloat("cv", math.Float64frombits(k.cv))
		params.SetUint64("seed", k.seed)
		params.SetInt("unitwork", k.unitwork)
	} else {
		params.SetInt("work", k.work)
	}
	return rts.NamedBinding(k.kernel, params)
}

// take returns an idle Bound of g under binding k, reset, or binds g
// afresh when none is idle or the one taken registered no reset.
func take(idle *sync.Pool, g *delirium.Graph, k bindingKey) (*rts.Bound, error) {
	if b, ok := idle.Get().(*rts.Bound); ok && b.Reset() {
		return b, nil
	}
	return rts.Bind(g, k.binding())
}

// execute runs an admitted job on the pool with its grant and finishes
// it. The job's kernels come from its graph's idle Bounds, and go back
// there only from a run that succeeded and was digested: a failed or
// canceled run's state is dropped with its Bound.
func (s *Server) execute(j *Job, grant int) {
	key := kernelBinding(j.req)
	idle := j.entry.idlePool(key)
	bound, err := take(idle, j.entry.graph, key)
	if err != nil {
		s.finishJob(j, nil, "", "", err)
		return
	}

	opts := rts.RunOpts{
		Processors: grant,
		Mode:       j.mode,
		Fault:      j.plan,
		Ctx:        j.ctx,
	}
	var col obs.Collector
	if j.req.Trace {
		opts.Sink = &col
	}

	res, err := s.pool.Run(j.entry.graph, bound, opts)
	if err != nil {
		s.finishJob(j, nil, "", "", err)
		return
	}
	digest := ""
	if d, ok := bound.Digest(); ok {
		digest = d
	}
	idle.Put(bound)
	traceJSON := ""
	if j.req.Trace && col.Trace != nil {
		var buf bytes.Buffer
		if werr := obs.WriteChromeTrace(&buf, col.Trace); werr == nil {
			traceJSON = buf.String()
		}
	}
	s.finishJob(j, &res, digest, traceJSON, nil)
}

// admitJob moves a registered job into the running set, computes its
// worker grant against the jobs already there and logs the decision.
// The cost is O(running): the set is read and joined in one critical
// section, so of two concurrent admissions one always sees the other.
func (s *Server) admitJob(j *Job) int {
	s.mu.Lock()
	running := make([]jobLoad, 0, len(s.running))
	for o := range s.running {
		running = append(running, jobLoad{id: o.id, tasks: o.tasks})
	}
	s.running[j] = struct{}{}
	s.pending--
	s.mu.Unlock()
	d := admit(jobLoad{id: j.id, tasks: j.tasks}, running, s.pool.Size(), j.req.Processors)
	s.alloc.add(d)

	j.mu.Lock()
	j.state = StateRunning
	j.grant = d.Grant
	j.startedAt = time.Now()
	j.mu.Unlock()
	return d.Grant
}

// finishJob moves a job to its terminal state, closes Done, and retires
// it from the running set into the eviction ring: the terminal job it
// displaces there, the oldest, leaves the registry.
func (s *Server) finishJob(j *Job, res *trace.Result, digest, traceJSON string, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
		j.digest = digest
		j.traceJSON = traceJSON
	case rts.IsCanceled(err):
		j.state = StateCanceled
		j.errMsg = err.Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	state := j.state
	j.mu.Unlock()
	close(j.doneCh)

	s.mu.Lock()
	delete(s.running, j)
	if len(s.terminal) < retainTerminal {
		s.terminal = append(s.terminal, j)
	} else {
		delete(s.jobs, s.terminal[s.termNext].id)
		s.terminal[s.termNext] = j
		s.termNext = (s.termNext + 1) % retainTerminal
	}
	switch state {
	case StateDone:
		s.done++
		if res != nil {
			s.chainHits += int64(res.ChainHits)
			s.chainSpills += int64(res.ChainSpills)
			s.chainFallbacks += int64(res.ChainFallbacks)
		}
	case StateCanceled:
		s.canceled++
	default:
		s.failed++
	}
	s.mu.Unlock()
}

// Job looks up a job in the registry by id. A terminal job that
// retainTerminal later completions have displaced is a miss.
func (s *Server) Job(id string) (*Job, bool) {
	j, _ := s.lookup(id)
	return j, j != nil
}

const jobPrefix = "job-"

// lookup is Job that also tells an evicted id from one never issued.
// Ids are issued densely from 1, so a well-formed id at or below seq
// that misses the registry was evicted; no tombstones are kept.
func (s *Server) lookup(id string) (j *Job, evicted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(id, jobPrefix))
	return nil, err == nil && 1 <= n && n <= s.seq && id == jobPrefix+strconv.Itoa(n)
}

// Stats is the /stats document: pool occupancy, graph-cache hit rates,
// job counters, and the recent cross-job allocation decisions.
type Stats struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Pool          native.PoolStats `json:"pool"`
	Cache         CacheStats       `json:"cache"`
	Jobs          JobCounts        `json:"jobs"`
	Pipeline      PipelineStats    `json:"pipeline"`
	Allocations   []AllocDecision  `json:"allocations"`
}

// PipelineStats aggregates the cache-chain scheduler's activity across
// every job the pool has completed: chunks run in place on the chain
// path, blocks spilled back to the work-stealing deques at the depth
// limit, and blocks released to surviving workers during crash
// recovery.
type PipelineStats struct {
	ChainHits      int64 `json:"chain_hits"`
	ChainSpills    int64 `json:"chain_spills"`
	ChainFallbacks int64 `json:"chain_fallbacks"`
}

// JobCounts aggregates job states. Total is the number of jobs in the
// registry right now — Queued + Running + the terminal jobs retained,
// never more than retainTerminal of those — not the number ever
// submitted. Done, Failed and Canceled count over the daemon's lifetime.
type JobCounts struct {
	Total    int   `json:"total"`
	Queued   int   `json:"queued"`
	Running  int   `json:"running"`
	Done     int64 `json:"done"`
	Failed   int64 `json:"failed"`
	Canceled int64 `json:"canceled"`
}

// Stats snapshots the daemon.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	jc := JobCounts{Total: len(s.jobs), Queued: s.pending, Running: len(s.running),
		Done: s.done, Failed: s.failed, Canceled: s.canceled}
	ps := PipelineStats{ChainHits: s.chainHits, ChainSpills: s.chainSpills, ChainFallbacks: s.chainFallbacks}
	uptime := time.Since(s.started).Seconds()
	s.mu.Unlock()
	return Stats{
		UptimeSeconds: uptime,
		Pool:          s.pool.Stats(),
		Cache:         s.cache.stats(),
		Jobs:          jc,
		Pipeline:      ps,
		Allocations:   s.alloc.snapshot(),
	}
}
