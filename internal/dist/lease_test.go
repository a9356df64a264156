package dist_test

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"orchestra/internal/dist"
	"orchestra/internal/fault"
	"orchestra/internal/rts"
)

// Tests of the worker lease: which processes a Run uses, and which it
// leaves behind. They name processes by the PID each reported in its
// hello; dist.IdlePIDs (export_test.go) is the idle set between runs.

// helperEnv makes this test binary run one dist job, print the PIDs of
// the workers it leaves idle, and exit (see TestMain).
const helperEnv = "ORCHDIST_TEST_HELPER"

func helperMain() {
	out, err := sampleOutput()
	if err == nil {
		var bound *rts.Bound
		if bound, err = rts.Bind(out.Graph, arrayBinding(64)); err == nil {
			_, err = (dist.Backend{}).Run(out.Graph, bound, rts.RunOpts{Processors: 2, Mode: rts.ModeSplit})
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, pid := range dist.IdlePIDs() {
		fmt.Println(pid)
	}
	os.Exit(0)
}

// gone reports whether the process has exited (a zombie nobody has
// reaped yet has).
func gone(pid int) bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return true
	}
	// pid (comm) state ...
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+1:])
	return strings.HasPrefix(strings.TrimSpace(rest), "Z")
}

func waitGone(t *testing.T, pid int) {
	t.Helper()
	for deadline := time.Now().Add(3 * time.Second); !gone(pid); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("process %d is still there", pid)
		}
	}
}

func sortedIdle() []int {
	pids := dist.IdlePIDs()
	slices.Sort(pids)
	return pids
}

// TestLeaseReusesWorkers: the second of two runs forks nobody — the
// idle set holds the same processes after both — and both end on
// native's digest.
func TestLeaseReusesWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	dist.RetireIdle()
	g := compileSample(t).Graph
	const n, p = 256, 3
	want := nativeDigest(t, g, n, p, rts.ModeSplit)
	var first []int
	for run := 0; run < 3; run++ {
		if _, got := distRun(t, g, n, p, rts.RunOpts{Processors: p, Mode: rts.ModeSplit}); got != want {
			t.Fatalf("run %d: digest %s != native %s", run, got, want)
		}
		pids := sortedIdle()
		if len(pids) != p {
			t.Fatalf("run %d left %d idle workers, want %d", run, len(pids), p)
		}
		if run == 0 {
			first = pids
		} else if !slices.Equal(pids, first) {
			t.Fatalf("run %d used processes %v, the first %v", run, pids, first)
		}
	}
}

// TestLeaseReplacesDeadIdleWorker: a worker killed while idle is found
// dead when the job is sent, replaced by a fork, and never reported.
func TestLeaseReplacesDeadIdleWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("forks and kills worker processes")
	}
	dist.RetireIdle()
	g := compileSample(t).Graph
	const n, p = 256, 2
	want := nativeDigest(t, g, n, p, rts.ModeSplit)
	distRun(t, g, n, p, rts.RunOpts{Processors: p, Mode: rts.ModeSplit})
	before := sortedIdle()
	if len(before) != p {
		t.Fatalf("%d idle workers, want %d", len(before), p)
	}
	victim := before[0]
	if err := syscall.Kill(victim, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if _, got := distRun(t, g, n, p, rts.RunOpts{Processors: p, Mode: rts.ModeSplit}); got != want {
		t.Fatalf("digest %s != native %s after an idle worker was killed", got, want)
	}
	after := sortedIdle()
	if len(after) != p || slices.Contains(after, victim) || !slices.Contains(after, before[1]) {
		t.Fatalf("idle set %v after killing %d of %v: want the survivor and one new process", after, victim, before)
	}
	waitGone(t, victim)
}

// TestLeaseAfterCrash: a worker that crashed in a run is not leased
// again; the survivors of that run are.
func TestLeaseAfterCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("forks and kills worker processes")
	}
	dist.RetireIdle()
	g := compileSample(t).Graph
	const n, p = 512, 3
	want := nativeDigest(t, g, n, p, rts.ModeSplit)
	distRun(t, g, n, p, rts.RunOpts{Processors: p, Mode: rts.ModeSplit})
	before := sortedIdle()
	plan, err := fault.Parse("crash:0@1")
	if err != nil {
		t.Fatal(err)
	}
	if _, got := distRun(t, g, n, p, rts.RunOpts{Processors: p, Mode: rts.ModeSplit, Fault: plan}); got != want {
		t.Fatalf("digest after the crash %s != native %s", got, want)
	}
	after := sortedIdle()
	if len(after) != p-1 {
		t.Fatalf("idle set %v after worker 0 crashed, want %d survivors of %v", after, p-1, before)
	}
	for _, pid := range after {
		if !slices.Contains(before, pid) {
			t.Fatalf("idle set %v holds a process that was not in the run (%v)", after, before)
		}
	}
	for _, pid := range before {
		if !slices.Contains(after, pid) {
			waitGone(t, pid)
		}
	}
	// The next run leases the two and forks one.
	if _, got := distRun(t, g, n, p, rts.RunOpts{Processors: p, Mode: rts.ModeSplit}); got != want {
		t.Fatalf("digest of the run after %s != native %s", got, want)
	}
	if next := sortedIdle(); len(next) != p || !slices.Contains(next, after[0]) || !slices.Contains(next, after[1]) {
		t.Fatalf("idle set %v after the next run, want %v and one new process", next, after)
	}
}

// TestLeaseFailedRunPoolsNobody: a run that returns an error kills its
// workers, leased ones included.
func TestLeaseFailedRunPoolsNobody(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	dist.RetireIdle()
	g := compileSample(t).Graph
	const n, p = 256, 2
	distRun(t, g, n, p, rts.RunOpts{Processors: p, Mode: rts.ModeSplit})
	before := sortedIdle()
	if len(before) != p {
		t.Fatalf("%d idle workers, want %d", len(before), p)
	}
	bound, err := rts.Bind(g, arrayBinding(n))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (dist.Backend{}).Run(g, bound, rts.RunOpts{Processors: p, Mode: rts.ModeSplit, Ctx: ctx}); err == nil {
		t.Fatal("a cancelled run returned no error")
	}
	if after := dist.IdlePIDs(); len(after) != 0 {
		t.Fatalf("a failed run left %v in the idle set", after)
	}
	for _, pid := range before {
		waitGone(t, pid)
	}
}

// TestLeaseConcurrentRuns: runs in flight at the same time never share
// a worker. From an empty idle set two runs of p workers fork 2p
// processes; from then on pairs of runs lease those, whole, and every
// run ends on native's digest (a worker serving two coordinators would
// not).
func TestLeaseConcurrentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	dist.RetireIdle()
	g := compileSample(t).Graph
	const n, p = 256, 2
	want := nativeDigest(t, g, n, p, rts.ModeSplit)
	var first []int
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bound, err := rts.Bind(g, arrayBinding(n))
				if err == nil {
					_, err = (dist.Backend{}).Run(g, bound, rts.RunOpts{Processors: p, Mode: rts.ModeSplit})
				}
				if got, _ := bound.Digest(); err == nil && got != want {
					err = fmt.Errorf("digest %s != native %s", got, want)
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		pids := sortedIdle()
		if len(slices.Compact(slices.Clone(pids))) != len(pids) {
			t.Fatalf("round %d: a process is in the idle set twice: %v", round, pids)
		}
		if round == 0 {
			first = pids
			continue
		}
		// Two overlapping runs need 2p processes between them; runs that
		// did not overlap may have got by with fewer, never with others.
		if !slices.Equal(pids, first) {
			t.Fatalf("round %d: idle set %v, after the first round %v", round, pids, first)
		}
	}
	if len(first) < p || len(first) > 2*p {
		t.Fatalf("two runs of %d workers left %d processes", p, len(first))
	}
}

// TestLeaseDiesWithCoordinator: a process that runs one dist job and
// exits leaves no child behind — its idle workers read the end of their
// sockets and go.
func TestLeaseDiesWithCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("helper: %v", err)
	}
	fields := strings.Fields(string(out))
	if len(fields) != 2 {
		t.Fatalf("helper reported %q, want the PIDs of two idle workers", out)
	}
	for _, f := range fields {
		pid, err := strconv.Atoi(f)
		if err != nil {
			t.Fatal(err)
		}
		waitGone(t, pid)
	}
}
