package dist

// IdlePIDs reports the process ids in the idle set, least recently used
// first, for the external tests of the lease.
func IdlePIDs() []int {
	idle.Lock()
	defer idle.Unlock()
	pids := make([]int, len(idle.procs))
	for i, p := range idle.procs {
		pids[i] = p.pid
	}
	return pids
}

// RetireIdle empties the idle set, so that a test starts from forks.
func RetireIdle() {
	idle.Lock()
	over := idle.procs
	idle.procs = nil
	idle.Unlock()
	retire(over)
}
