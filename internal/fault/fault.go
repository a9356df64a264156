// Package fault defines deterministic fault plans for both execution
// backends: seeded schedules of worker crashes, stalls and slowdowns,
// plus simulator message delay and loss. A Plan is pure data — it can
// be parsed from a -fault flag, rendered back, validated against a
// worker count, and attached to a run through rts.RunOpts.Fault — and
// an Exec is the per-run injector the executors consult at each chunk
// boundary.
//
// Triggers are chunk counts, not timestamps: action k of worker w
// fires when w is about to start its (After+1)-th chunk. Chunk counts
// are the one scheduling quantity both backends share, so the same
// plan means the same thing on the simulator's virtual clock and the
// native runtime's wall clock, and a replayed plan fires at the same
// logical point every time.
//
// Durations (stall lengths, the native detector deadline) are in the
// backend's time unit: wall-clock seconds on the native backend,
// simulated units on the simulator.
//
// The package is a leaf: it imports only the standard library and
// internal/stats, so every layer (machine, sched, rts, native) can
// depend on it without cycles.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"orchestra/internal/stats"
)

// Kind classifies one fault action.
type Kind uint8

// The fault taxonomy.
const (
	// Crash permanently removes a worker: at the trigger point it stops
	// taking work and never returns. Its queued chunks stay where they
	// are, and the survivors take them by the ordinary steal.
	Crash Kind = 1 + iota
	// Stall suspends a worker for Duration at the trigger point, then
	// lets it resume — the transient form of Crash, which the native
	// detector must tolerate without losing the worker's work.
	Stall
	// Slow multiplies a worker's task execution time by Factor from the
	// trigger point on, for the rest of the run.
	Slow
	// MsgDelay scales every simulated message cost by 1+Delay. The
	// native backend has no modelled messages and ignores it.
	MsgDelay
	// MsgLoss drops each simulated message with probability Prob; a
	// dropped message is retransmitted, doubling its cost. Values are
	// never lost — loss is a cost perturbation, as in the paper's
	// reliable message layer.
	MsgLoss
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Stall:
		return "stall"
	case Slow:
		return "slow"
	case MsgDelay:
		return "delay"
	case MsgLoss:
		return "loss"
	}
	return "?"
}

// Action is one scheduled fault.
type Action struct {
	Kind   Kind
	Worker int // target worker (Crash/Stall/Slow)
	// After is the chunk-count trigger: the action fires when the
	// worker is about to start chunk number After (0-based), i.e. after
	// it has started After chunks.
	After    int
	Duration float64 // Stall: how long the worker sleeps
	Factor   float64 // Slow: task-time multiplier (> 1)
	Prob     float64 // MsgLoss: per-message drop probability in [0, 1)
	Delay    float64 // MsgDelay: message costs scale by 1+Delay
}

// Plan is a deterministic fault schedule for one run.
type Plan struct {
	// Seed drives the message-loss coin flips; worker faults are fully
	// deterministic and ignore it.
	Seed uint64
	// Deadline is the native detector's heartbeat deadline in seconds
	// (zero means DefaultDeadline). The simulator needs no detector —
	// faults are injected into its event stream directly.
	Deadline float64
	Actions  []Action
}

// DefaultDeadline is the native detector's heartbeat deadline when the
// plan does not set one: long enough that a healthy worker crossing a
// chunk boundary is never suspected, short enough that tests recover
// in milliseconds.
const DefaultDeadline = 0.01

// String renders the plan in the -fault flag syntax; Parse(p.String())
// round-trips.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, "seed:"+strconv.FormatUint(p.Seed, 10))
	}
	if p.Deadline != 0 {
		parts = append(parts, "deadline:"+formatF(p.Deadline))
	}
	for _, a := range p.Actions {
		switch a.Kind {
		case Crash:
			parts = append(parts, fmt.Sprintf("crash:%d@%d", a.Worker, a.After))
		case Stall:
			parts = append(parts, fmt.Sprintf("stall:%d@%d:%s", a.Worker, a.After, formatF(a.Duration)))
		case Slow:
			parts = append(parts, fmt.Sprintf("slow:%d@%d:%s", a.Worker, a.After, formatF(a.Factor)))
		case MsgDelay:
			parts = append(parts, "delay:"+formatF(a.Delay))
		case MsgLoss:
			parts = append(parts, "loss:"+formatF(a.Prob))
		}
	}
	return strings.Join(parts, ",")
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Parse reads the -fault flag syntax: a comma-separated list of
//
//	crash:W@A      worker W crashes at its A-th chunk boundary
//	stall:W@A:D    worker W stalls for duration D at its A-th boundary
//	slow:W@A:F     worker W runs F× slower from its A-th boundary on
//	delay:F        every simulated message costs (1+F)× its base time
//	loss:P         each simulated message is lost (and retransmitted)
//	               with probability P
//	seed:N         seed for the loss coin flips
//	deadline:D     native detector heartbeat deadline (seconds)
//
// An empty spec yields a nil plan.
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, rest, ok := strings.Cut(item, ":")
		if !ok {
			return nil, fmt.Errorf("fault: %q is not key:value", item)
		}
		switch key {
		case "seed":
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q", rest)
			}
			p.Seed = v
		case "deadline":
			v, err := parseFinite(rest)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("fault: bad deadline %q", rest)
			}
			p.Deadline = v
		case "delay":
			v, err := parseFinite(rest)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("fault: bad delay %q", rest)
			}
			p.Actions = append(p.Actions, Action{Kind: MsgDelay, Delay: v})
		case "loss":
			v, err := parseFinite(rest)
			if err != nil || v < 0 || v >= 1 {
				return nil, fmt.Errorf("fault: bad loss probability %q (want [0, 1))", rest)
			}
			p.Actions = append(p.Actions, Action{Kind: MsgLoss, Prob: v})
		case "crash", "stall", "slow":
			a, err := parseWorkerAction(key, rest)
			if err != nil {
				return nil, err
			}
			p.Actions = append(p.Actions, a)
		default:
			return nil, fmt.Errorf("fault: unknown action %q (valid: crash, stall, slow, delay, loss, seed, deadline)", key)
		}
	}
	return p, nil
}

// parseWorkerAction reads W@A or W@A:X after a crash/stall/slow key.
func parseWorkerAction(key, rest string) (Action, error) {
	target, extra, hasExtra := strings.Cut(rest, ":")
	ws, as, ok := strings.Cut(target, "@")
	if !ok {
		return Action{}, fmt.Errorf("fault: %s:%q needs worker@chunk", key, rest)
	}
	w, err := strconv.Atoi(ws)
	if err != nil || w < 0 {
		return Action{}, fmt.Errorf("fault: bad worker %q", ws)
	}
	after, err := strconv.Atoi(as)
	if err != nil || after < 0 {
		return Action{}, fmt.Errorf("fault: bad chunk trigger %q", as)
	}
	a := Action{Worker: w, After: after}
	switch key {
	case "crash":
		if hasExtra {
			return Action{}, fmt.Errorf("fault: crash takes no extra parameter")
		}
		a.Kind = Crash
	case "stall":
		if !hasExtra {
			return Action{}, fmt.Errorf("fault: stall:%s needs a duration", rest)
		}
		d, err := parseFinite(extra)
		if err != nil || d <= 0 {
			return Action{}, fmt.Errorf("fault: bad stall duration %q", extra)
		}
		a.Kind, a.Duration = Stall, d
	case "slow":
		if !hasExtra {
			return Action{}, fmt.Errorf("fault: slow:%s needs a factor", rest)
		}
		f, err := parseFinite(extra)
		if err != nil || f < 1 {
			return Action{}, fmt.Errorf("fault: bad slow factor %q (want >= 1)", extra)
		}
		a.Kind, a.Factor = Slow, f
	}
	return a, nil
}

// parseFinite is strconv.ParseFloat restricted to finite values: no
// run has a NaN or infinite duration, factor, probability or delay.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("fault: %q is not finite", s)
	}
	return v, err
}

// HasWorkerFaults reports whether the plan targets any worker (crash,
// stall or slow) — the faults that need scheduler cooperation, as
// opposed to the message perturbations.
func (p *Plan) HasWorkerFaults() bool {
	if p == nil {
		return false
	}
	for _, a := range p.Actions {
		if a.Kind == Crash || a.Kind == Stall || a.Kind == Slow {
			return true
		}
	}
	return false
}

// NeedsDetector reports whether the plan can leave a worker unresponsive
// while it holds work (a stall) — the native backend starts its
// heartbeat detector only for these plans. A crash needs no detector:
// the crashing worker declares itself dead.
func (p *Plan) NeedsDetector() bool {
	if p == nil {
		return false
	}
	for _, a := range p.Actions {
		if a.Kind == Stall {
			return true
		}
	}
	return false
}

// HasMsgFaults reports whether the plan perturbs simulated messages.
func (p *Plan) HasMsgFaults() bool {
	if p == nil {
		return false
	}
	for _, a := range p.Actions {
		if a.Kind == MsgDelay || a.Kind == MsgLoss {
			return true
		}
	}
	return false
}

// Validate checks the plan against a concrete worker count. The one
// load-bearing rule: at least one worker must be free of both crash
// and stall actions. A crash removes a worker outright, and a stalled
// worker can be (safely but permanently) declared dead by the native
// detector, so a plan that crashes or stalls every worker has no
// guaranteed survivor to finish the run.
func (p *Plan) Validate(workers int) error {
	if p == nil {
		return nil
	}
	if workers < 1 {
		return fmt.Errorf("fault: plan needs at least one worker, got %d", workers)
	}
	hit := make([]bool, workers)
	for _, a := range p.Actions {
		switch a.Kind {
		case Crash, Stall, Slow:
			if a.Worker < 0 || a.Worker >= workers {
				return fmt.Errorf("fault: %s targets worker %d of %d", a.Kind, a.Worker, workers)
			}
			if a.Kind != Slow {
				hit[a.Worker] = true
			}
		}
	}
	for _, h := range hit {
		if !h {
			return nil
		}
	}
	return fmt.Errorf("fault: every one of the %d workers is crashed or stalled; at least one must survive", workers)
}

// Random builds a seeded random plan for the given worker count that
// always keeps at least one worker free of crash and stall actions.
// Fuzz campaigns use it to explore the fault space while staying
// inside the survivable region Validate accepts.
func Random(seed uint64, workers int) *Plan {
	rng := stats.NewRNG(seed ^ 0x5fa7f2c6b1e3d9a1)
	p := &Plan{Seed: seed, Deadline: 0.004}
	if workers < 2 {
		// Nothing survivable can target the only worker; perturb
		// messages at most.
		if rng.Bernoulli(0.5) {
			p.Actions = append(p.Actions, Action{Kind: MsgDelay, Delay: rng.Uniform(0, 1)})
		}
		return p
	}
	survivor := rng.Intn(workers)
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		w := rng.Intn(workers)
		after := rng.Intn(4)
		switch rng.Intn(3) {
		case 0:
			if w == survivor {
				w = (w + 1) % workers
			}
			p.Actions = append(p.Actions, Action{Kind: Crash, Worker: w, After: after})
		case 1:
			if w == survivor {
				w = (w + 1) % workers
			}
			p.Actions = append(p.Actions, Action{Kind: Stall, Worker: w, After: after,
				Duration: rng.Uniform(0.001, 0.02)})
		case 2:
			p.Actions = append(p.Actions, Action{Kind: Slow, Worker: w, After: after,
				Factor: 1 + rng.Uniform(0, 3)})
		}
	}
	if rng.Bernoulli(0.3) {
		p.Actions = append(p.Actions, Action{Kind: MsgDelay, Delay: rng.Uniform(0, 1)})
	}
	if rng.Bernoulli(0.3) {
		p.Actions = append(p.Actions, Action{Kind: MsgLoss, Prob: rng.Uniform(0, 0.5)})
	}
	return p
}

// Decision is what Begin tells an executor to do with the chunk it is
// about to start.
type Decision struct {
	// Crash: do not start the chunk; the worker stops participating.
	// Sticky — once a worker crashes, every later Begin returns Crash.
	Crash bool
	// Stall: do not start the chunk yet; suspend for this long, then
	// consult Begin again. Consumed — each stall action fires once.
	Stall float64
	// Slow: execute the chunk, but its tasks run this many times
	// slower. Zero means full speed.
	Slow float64
	// Fresh marks the worker's first crash decision and its first
	// slowed one: the decisions a driver records a fault event for.
	Fresh bool
}

// workerState is one worker's injection state. Owned by the worker's
// goroutine on the native backend and by the single simulator
// goroutine on the simulated one, so no locking is needed.
type workerState struct {
	count    int // chunks started (Begin calls that said "proceed")
	crashed  bool
	crashAt  int // earliest crash trigger, or -1
	stalls   []Action
	stallPos int // stalls[:stallPos] have fired
	slows    []Action
	slowPos  int
	slowF    float64 // active multiplier (1 = none)
	slowed   bool    // a slowed decision has been returned
}

// Exec is the runtime injector built from a validated plan. A nil
// *Exec is valid and injects nothing, so fault-free runs pay one nil
// check per chunk.
type Exec struct {
	deadline   float64
	delayScale float64
	lossProb   float64
	rng        *stats.RNG
	ws         []workerState
}

// NewExec instantiates a plan's injector for a run on the given number
// of workers. A nil plan yields a nil Exec.
func NewExec(p *Plan, workers int) *Exec {
	if p == nil {
		return nil
	}
	x := &Exec{
		deadline:   p.Deadline,
		delayScale: 1,
		rng:        stats.NewRNG(p.Seed ^ 0x9e3779b97f4a7c15),
		ws:         make([]workerState, workers),
	}
	if x.deadline <= 0 {
		x.deadline = DefaultDeadline
	}
	for i := range x.ws {
		x.ws[i].crashAt = -1
		x.ws[i].slowF = 1
	}
	for _, a := range p.Actions {
		switch a.Kind {
		case MsgDelay:
			x.delayScale *= 1 + a.Delay
		case MsgLoss:
			x.lossProb = 1 - (1-x.lossProb)*(1-a.Prob)
		case Crash, Stall, Slow:
			if a.Worker < 0 || a.Worker >= workers {
				continue // Validate rejects these; be safe anyway
			}
			w := &x.ws[a.Worker]
			switch a.Kind {
			case Crash:
				if w.crashAt < 0 || a.After < w.crashAt {
					w.crashAt = a.After
				}
			case Stall:
				w.stalls = append(w.stalls, a)
			case Slow:
				w.slows = append(w.slows, a)
			}
		}
	}
	for i := range x.ws {
		sortByAfter(x.ws[i].stalls)
		sortByAfter(x.ws[i].slows)
	}
	return x
}

func sortByAfter(as []Action) {
	sort.SliceStable(as, func(i, j int) bool { return as[i].After < as[j].After })
}

// Deadline is the native detector's heartbeat deadline in seconds.
func (x *Exec) Deadline() float64 {
	if x == nil {
		return DefaultDeadline
	}
	return x.deadline
}

// Begin is the per-chunk injection point: worker w is about to start a
// chunk. The returned decision tells the executor to proceed (possibly
// slowed), to stall and ask again, or to crash. Begin must be called
// only from the goroutine that owns worker w.
//
// An action's "@K" is compared against the number of Begin calls that
// said "proceed", whether or not the caller then found a chunk to
// start. The native and dist engines call Begin with a chunk in hand,
// so there K counts chunks. The simulator's barrier-free executor
// (rts.dagRun) calls it at every scheduling decision, including the
// re-scan of a woken idle processor that finds nothing: there
// "crash:W@K" is W's K-th scheduling decision, which can fall while W
// is parked between chunks. That count is part of the simulator's
// pinned fault schedules, so the executor must consult Begin at every
// such point (see dagRun.drain).
func (x *Exec) Begin(w int) Decision {
	if x == nil || w < 0 || w >= len(x.ws) {
		return Decision{}
	}
	ws := &x.ws[w]
	if ws.crashed || (ws.crashAt >= 0 && ws.count >= ws.crashAt) {
		fresh := !ws.crashed
		ws.crashed = true
		return Decision{Crash: true, Fresh: fresh}
	}
	if ws.stallPos < len(ws.stalls) && ws.count >= ws.stalls[ws.stallPos].After {
		d := ws.stalls[ws.stallPos].Duration
		ws.stallPos++
		return Decision{Stall: d}
	}
	for ws.slowPos < len(ws.slows) && ws.count >= ws.slows[ws.slowPos].After {
		if f := ws.slows[ws.slowPos].Factor; f > ws.slowF {
			ws.slowF = f
		}
		ws.slowPos++
	}
	ws.count++
	if ws.slowF > 1 {
		fresh := !ws.slowed
		ws.slowed = true
		return Decision{Slow: ws.slowF, Fresh: fresh}
	}
	return Decision{}
}

// Crashed reports whether worker w has taken its crash decision.
func (x *Exec) Crashed(w int) bool {
	if x == nil || w < 0 || w >= len(x.ws) {
		return false
	}
	return x.ws[w].crashed
}

// MsgCost perturbs one simulated message cost: delayed by the
// cumulative delay scale, and — with the plan's loss probability —
// doubled to model a retransmission after a drop. Single-threaded
// (the simulator's event loop); pass it as machine.Config.MsgPerturb.
func (x *Exec) MsgCost(base float64) float64 {
	if x == nil {
		return base
	}
	c := base * x.delayScale
	if x.lossProb > 0 && x.rng.Bernoulli(x.lossProb) {
		c += base * x.delayScale
	}
	return c
}
