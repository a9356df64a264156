// Package cliflag holds the flag types every orchestra command shares:
// execution modes, backend selection, and fault plans. Each is a
// flag.Value whose Set validates eagerly, so a typo fails at parse time
// with the flag package's standard diagnostics ("invalid value ... for
// flag -mode: ...") instead of after the workload has been built — and
// every command that accepts -mode/-backend/-fault accepts exactly the
// same syntax, because they all parse through here.
package cliflag

import (
	"flag"
	"fmt"
	"strings"

	_ "orchestra/internal/core" // register backends and kernels
	"orchestra/internal/fault"
	"orchestra/internal/rts"
)

// ModesValue is a -mode/-modes flag: a comma list of execution modes,
// or "all". The zero value is invalid; construct through Modes.
type ModesValue struct {
	raw   string
	modes []rts.Mode
}

// Modes registers a modes flag on fs with the given default (which
// must itself parse) and returns the value to read after fs.Parse.
func Modes(fs *flag.FlagSet, name, def, usage string) *ModesValue {
	v := &ModesValue{}
	if err := v.Set(def); err != nil {
		panic(fmt.Sprintf("cliflag: bad default %q for -%s: %v", def, name, err))
	}
	fs.Var(v, name, usage)
	return v
}

// Set implements flag.Value, accepting rts.ParseModes syntax.
func (v *ModesValue) Set(s string) error {
	ms, err := rts.ParseModes(s)
	if err != nil {
		return err
	}
	v.raw, v.modes = s, ms
	return nil
}

// String implements flag.Value.
func (v *ModesValue) String() string { return v.raw }

// Modes returns the parsed mode list, in the order given.
func (v *ModesValue) Modes() []rts.Mode { return v.modes }

// Single returns the mode when exactly one was requested, and an error
// naming the flag otherwise — for commands (or command options like
// -trace) that cannot run a mode sweep.
func (v *ModesValue) Single() (rts.Mode, error) {
	if len(v.modes) != 1 {
		return 0, fmt.Errorf("need a single mode, not %q", v.raw)
	}
	return v.modes[0], nil
}

// BackendValue is a -backend flag: one of rts.BackendNames. The name
// is validated at parse time against the backend registry; the backend
// itself is constructed later via New, when the processor count is
// known.
type BackendValue struct {
	name string
	info rts.BackendInfo
}

// Backend registers a backend flag on fs. def must be a valid backend
// name.
func Backend(fs *flag.FlagSet, name, def, usage string) *BackendValue {
	v := &BackendValue{}
	if err := v.Set(def); err != nil {
		panic(fmt.Sprintf("cliflag: bad default %q for -%s: %v", def, name, err))
	}
	fs.Var(v, name, usage)
	return v
}

// Set implements flag.Value, rejecting unknown backend names.
func (v *BackendValue) Set(s string) error {
	info, ok := rts.LookupBackend(s)
	if !ok {
		return fmt.Errorf("unknown backend %q (valid: %s)", s, strings.Join(rts.BackendNames(), ", "))
	}
	v.name, v.info = s, info
	return nil
}

// String implements flag.Value.
func (v *BackendValue) String() string { return v.name }

// Name returns the validated backend name.
func (v *BackendValue) Name() string { return v.name }

// Measured reports whether the selected backend executes real work in
// wall-clock time — the commands branch on this for kernel selection
// and unit labels (a modeled backend wants modeled task times; a
// measured one wants tasks that actually compute).
func (v *BackendValue) Measured() bool { return v.info.Measured }

// New constructs the selected backend through the backend registry;
// a run's processor count is its RunOpts.Processors.
func (v *BackendValue) New() (rts.Backend, error) {
	return rts.OpenBackend(v.name)
}

// FaultValue is a -fault flag: a fault plan in internal/fault syntax,
// empty for none.
type FaultValue struct {
	raw  string
	plan *fault.Plan
}

// Fault registers a fault-plan flag on fs; the empty default means no
// injection.
func Fault(fs *flag.FlagSet, name, usage string) *FaultValue {
	v := &FaultValue{}
	fs.Var(v, name, usage)
	return v
}

// Set implements flag.Value, accepting fault.Parse syntax.
func (v *FaultValue) Set(s string) error {
	if s == "" {
		v.raw, v.plan = "", nil
		return nil
	}
	p, err := fault.Parse(s)
	if err != nil {
		return err
	}
	v.raw, v.plan = s, p
	return nil
}

// String implements flag.Value.
func (v *FaultValue) String() string { return v.raw }

// Plan returns the parsed plan, nil when the flag was not given.
func (v *FaultValue) Plan() *fault.Plan { return v.plan }
