package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// envBlock is printed with every result, so a number can always be read
// against the machine that produced it.
type envBlock struct {
	NumCPU         int    `json:"num_cpu"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	P              int    `json:"p"`
	GoVersion      string `json:"go_version"`
	Commit         string `json:"commit"`
	Kernel         string `json:"kernel"`
	LLCBytes       int64  `json:"llc_bytes"`
	MemChainBytes  int64  `json:"memchain_bytes"`
	Oversubscribed bool   `json:"oversubscribed"`
}

// resolveP applies the common rule: P = min(NumCPU, 4) workers, clients
// or pool size, never more. A forced P above what the host can run in
// parallel is refused unless allowed, and marked in the env block.
func resolveP(forced int, allow bool) (p int, over bool, err error) {
	cores := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	p = min(cores, 4)
	if forced > 0 {
		p = forced
	}
	over = p > cores
	if over && !allow {
		return 0, true, fmt.Errorf("-p %d exceeds the %d CPUs this process can use; pass -allow-oversubscribed to run anyway", p, cores)
	}
	return p, over, nil
}

func newEnv(p int, over bool) envBlock {
	return envBlock{
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		P:              p,
		GoVersion:      runtime.Version(),
		Commit:         commit(),
		Kernel:         kernelRelease(),
		LLCBytes:       llcBytes(),
		MemChainBytes:  5 * 8 * memchainN,
		Oversubscribed: over,
	}
}

// commit reads HEAD from the repository's .git directory; it is
// "unknown" where the benchmark runs from an exported tree. (No git
// subprocess: a child would count in RUSAGE_CHILDREN and so in
// peak_rss_mb.)
func commit() string {
	root, err := repoRoot()
	if err != nil {
		return "unknown"
	}
	git := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(git, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return hash
		}
	}
	return "unknown"
}

// repoRoot is the nearest directory at or above the working directory
// that holds go.mod: the checkout root whether the benchmark runs as
// `go run ./bench` or as a test inside bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod at or above the working directory")
		}
		dir = parent
	}
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// llcBytes is the size of cpu0's highest-level cache, 0 when the host
// does not say.
func llcBytes() int64 {
	var best int64
	bestLevel := 0
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		sz, err := os.ReadFile(dir + "size")
		if err != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err == nil && level >= bestLevel {
			best, bestLevel = n*mult, level
		}
	}
	return best
}

// resetPeakRSS makes VmHWM start again from the current resident size,
// so that each episode reports its own peak.
func resetPeakRSS() {
	// Where the kernel refuses, the peak stays the process's so far.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's VmHWM plus, for a workload that forks
// workers, P times the largest reaped child's peak (the kernel keeps
// only the maximum over children, and P of them run at once).
func peakRSSMiB(p int) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var selfKB int64 = -1
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			selfKB, err = strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
		}
	}
	if selfKB < 0 {
		return 0, fmt.Errorf("no VmHWM in /proc/self/status")
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(selfKB+int64(p)*ru.Maxrss) / 1024, nil
}
