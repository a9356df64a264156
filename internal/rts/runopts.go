package rts

import (
	"context"
	"errors"
	"fmt"

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
	// Sink, when non-nil, enables event tracing: the backend records
	// per-chunk spans, steals, TAPER decisions, allocation iterations
	// and gate advances into per-worker ring buffers and delivers the
	// completed obs.Trace to the sink. A nil Sink costs one branch per
	// would-be event.
	Sink obs.Sink
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
