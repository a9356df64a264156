package rts

import (
	"fmt"
	"sort"
	"sync"

	"orchestra/internal/machine"
)

// This file is the backend registry: backends self-register by name at
// package init time and every consumer — the cliflag parser, the six
// command binaries, the serve daemon, the fuzz oracle matrix — opens
// them through OpenBackend. Adding a backend means one init function,
// not six switch statements; the per-command `switch backend
// {"sim","native"}` blocks this replaces were exactly the seam that
// made a third backend a cross-cutting change.

// BackendFactory constructs a Backend instance. It takes no
// configuration: every per-run knob, the processor count included,
// arrives in RunOpts, and a zero RunOpts.Processors takes the backend's
// own default.
type BackendFactory func() (Backend, error)

// BackendInfo describes a registered backend to generic consumers
// (flag help, unit labels, harness matrices) without hard-coding
// names.
type BackendInfo struct {
	// Name is the registration name ("sim", "native", "dist").
	Name string
	// Measured reports whether the backend executes tasks for real and
	// reports wall-clock seconds (native, dist), as opposed to charging
	// modeled costs to a simulated clock (sim). Consumers use it for
	// unit labels and for choosing measured-work kernels over modeled
	// ones.
	Measured bool
}

type backendEntry struct {
	info    BackendInfo
	factory BackendFactory
}

var (
	backendMu  sync.RWMutex
	backendReg = map[string]backendEntry{}
)

// RegisterBackend adds a backend factory under info.Name. Backends
// call it from an init function; duplicate or empty names panic, since
// they indicate a build-level wiring error no caller can recover from.
func RegisterBackend(info BackendInfo, factory BackendFactory) {
	if info.Name == "" {
		panic("rts: backend registration with empty name")
	}
	if factory == nil {
		panic("rts: backend " + info.Name + " registered with nil factory")
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backendReg[info.Name]; dup {
		panic("rts: backend " + info.Name + " registered twice")
	}
	backendReg[info.Name] = backendEntry{info: info, factory: factory}
}

// OpenBackend constructs an instance of the named backend. Unknown
// names report the registered alternatives.
func OpenBackend(name string) (Backend, error) {
	backendMu.RLock()
	e, ok := backendReg[name]
	backendMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("rts: unknown backend %q (registered: %v)", name, BackendNames())
	}
	return e.factory()
}

// LookupBackend returns the registration metadata for name.
func LookupBackend(name string) (BackendInfo, bool) {
	backendMu.RLock()
	e, ok := backendReg[name]
	backendMu.RUnlock()
	return e.info, ok
}

// BackendNames lists the registered backend names, sorted. Sorting
// keeps the list independent of package-init order, which Go does not
// pin down across builds.
func BackendNames() []string {
	backendMu.RLock()
	names := make([]string, 0, len(backendReg))
	for n := range backendReg {
		names = append(names, n)
	}
	backendMu.RUnlock()
	sort.Strings(names)
	return names
}

func init() {
	RegisterBackend(BackendInfo{Name: "sim"}, func() (Backend, error) {
		// The default simulated machine has 64 processors; a run's
		// RunOpts.Processors sizes it otherwise.
		return NewSimBackend(machine.DefaultConfig(64)), nil
	})
}
