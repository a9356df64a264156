package rts

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"orchestra/internal/fault"
	"orchestra/internal/obs"
)

// ErrCanceled marks a run abandoned because its RunOpts.Ctx was
// canceled or its deadline expired before every task completed. Both
// backends wrap it (together with the context's own error) into the
// error they return, so callers distinguish cancellation from
// execution failures with errors.Is(err, rts.ErrCanceled). A run whose
// context fires after the last task completes still reports success.
var ErrCanceled = errors.New("run canceled")

// CancelError builds the distinguishable error a backend returns for a
// canceled run: it wraps both ErrCanceled and the context's error, so
// errors.Is matches either (e.g. context.DeadlineExceeded for expired
// deadlines).
func CancelError(backend string, ctx context.Context) error {
	var cause error = ErrCanceled
	if ctx != nil && ctx.Err() != nil {
		cause = errors.Join(ErrCanceled, ctx.Err())
	}
	return fmt.Errorf("%s: %w", backend, cause)
}

// IsCanceled reports whether a backend error means the run was
// abandoned on a canceled context rather than failing.
func IsCanceled(err error) bool { return errors.Is(err, ErrCanceled) }

// RunOpts configures one execution of a Delirium graph. It is the
// single way to configure a run on any backend: the zero value of
// every field is a sensible default, so callers set only what they
// care about in a struct literal.
type RunOpts struct {
	// Processors is the number of simulated processors or worker
	// goroutines. Zero lets the backend choose its default: the
	// simulator uses its machine configuration's processor count, the
	// native backend uses GOMAXPROCS.
	Processors int
	// Mode selects the execution strategy. The zero value is
	// ModeStatic.
	Mode Mode
	// Omega, when positive, overrides TAPER's confidence-width
	// parameter ω for every operator (the paper's default is
	// ω ≈ √(2·ln p)). Parity and fuzz harnesses sweep it to vary
	// scheduling decisions without touching the policy package.
	Omega float64
	// Sink, when non-nil, enables event tracing: the backend records
	// per-chunk spans, steals, TAPER decisions, allocation iterations
	// and gate advances into per-worker ring buffers and delivers the
	// completed obs.Trace to the sink. A nil Sink costs one branch per
	// would-be event.
	Sink obs.Sink
	// Labels annotates native worker goroutines with runtime/pprof
	// labels (worker id, current operator) so profiles attribute
	// samples per operator. Labelling costs an allocation per operator
	// switch, so it is off unless a profile is being taken. The
	// simulator ignores it.
	Labels bool
	// Fault, when non-nil, injects a deterministic fault plan into the
	// run: worker crashes, stalls and slowdowns on either backend, plus
	// message delay/loss on the simulator. The backend validates the
	// plan against its resolved worker count (at least one worker must
	// survive). A nil Fault costs one branch per chunk boundary.
	Fault *fault.Plan
	// Ctx, when non-nil, bounds the run: cancellation (or an expired
	// deadline) makes the backend abandon unexecuted work, release its
	// workers, and return an error wrapping ErrCanceled. Cancellation
	// is cooperative at chunk boundaries — a task already executing
	// finishes first — so partial side effects never include a
	// half-executed task. A nil Ctx means the run cannot be canceled.
	Ctx context.Context
	// Chain selects the cache-chain policy for pipelined edges in
	// ModeSplit on the native backend. The zero value (ChainAuto)
	// chains edges whose kernels carry compatible split annotations
	// (or that the compiler marked Chain); ChainOff disables chaining
	// so every pipelined edge keeps the prefix-gate path — the
	// before/after knob bench's native-memchain workload flips. The simulator
	// ignores it.
	Chain ChainPolicy
}

// ChainPolicy selects how the native backend treats chain-eligible
// edges in ModeSplit.
type ChainPolicy int

const (
	// ChainAuto (the default) cache-chains annotation-compatible
	// producer/consumer edges.
	ChainAuto ChainPolicy = iota
	// ChainOff forces every pipelined edge through the prefix gate.
	ChainOff
)

// Supported declares which optional capabilities a backend implements,
// for CheckSupported and CheckGraphSupported. Every backend executes
// fault plans and honours the chain policy (a backend that never
// chains satisfies ChainOff by construction), so neither is declared.
type Supported struct {
	// Labels: the backend can attach pprof worker/operator labels.
	Labels bool
	// Expand: the backend can execute runtime expansions (delirium.Exp
	// nodes). Checked against the graph, not the RunOpts, via
	// CheckGraphSupported.
	Expand bool
}

// OptionError reports options a backend does not understand or cannot
// honour: RunOpts fields outside the backend's Supported set, or
// unknown keys in a BackendConfig.Options map. It replaces the old
// behaviour of silently ignoring such options — a run configured with
// an inapplicable option now fails loudly at Run (or OpenBackend)
// time, naming every offending field.
type OptionError struct {
	// Backend is the rejecting backend's name.
	Backend string
	// Fields lists the offending option names, sorted.
	Fields []string
	// Known, when non-nil, lists the option keys the backend does
	// accept (set for BackendConfig.Options rejections).
	Known []string
}

// Error implements error.
func (e *OptionError) Error() string {
	msg := fmt.Sprintf("rts: backend %q does not support option(s) %s",
		e.Backend, strings.Join(e.Fields, ", "))
	if len(e.Known) > 0 {
		msg += fmt.Sprintf(" (known: %s)", strings.Join(e.Known, ", "))
	} else if e.Known != nil {
		msg += " (backend takes no options)"
	}
	return msg
}

// CheckSupported verifies that o asks for no effect outside the
// backend's declared capability set — today only Labels can — returning
// a structured *OptionError naming the offending field otherwise.
// Backends call it at the top of Run, after Validate.
func (o RunOpts) CheckSupported(backend string, sup Supported) error {
	if o.Labels && !sup.Labels {
		return &OptionError{Backend: backend, Fields: []string{"Labels"}}
	}
	return nil
}

// canceled reports whether the run's context has fired.
func (o RunOpts) canceled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// Validate checks the options for consistency. Backends call it at
// the top of Run; callers constructing RunOpts by hand may call it
// early to fail fast.
func (o RunOpts) Validate() error {
	switch o.Mode {
	case ModeStatic, ModeTaper, ModeSplit:
	default:
		return fmt.Errorf("rts: unknown mode %d", int(o.Mode))
	}
	if o.Processors < 0 {
		return fmt.Errorf("rts: negative processor count %d", o.Processors)
	}
	if o.Omega < 0 || math.IsNaN(o.Omega) || math.IsInf(o.Omega, 0) {
		return fmt.Errorf("rts: omega %g is negative or not finite", o.Omega)
	}
	switch o.Chain {
	case ChainAuto, ChainOff:
	default:
		return fmt.Errorf("rts: unknown chain policy %d", int(o.Chain))
	}
	return nil
}

// processors resolves the processor count against a backend default.
func (o RunOpts) processors(def int) int {
	if o.Processors > 0 {
		return o.Processors
	}
	return def
}
