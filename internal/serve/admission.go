package serve

import (
	"sync"

	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
)

// Cross-job admission: how many of the shared pool's workers a new job
// should get. The daemon reuses the paper's finishing-time-equalizing
// processor allocator (rts.AllocateMany, §4.1.2) one level up from
// where the paper applies it — the "operations" being balanced are
// whole jobs, each summarized as one OpSpec whose task count is the
// job's task total, fixed when it was submitted (not what it has left).
// The allocator runs on native.CostModel, the pool's own zero-cost
// model, and hands back per-job targets that roughly equalize job
// finishing times; the new job's target, clamped to its requested
// maximum, becomes its initial worker grant, and the pool's FIFO lease
// queue provides the waiting. The grant is a
// starting point, not a reservation: while a job waits, running jobs
// hand it workers beyond their first (native.Pool), the run-time half
// of the paper's balancing.
//
// This is what makes the daemon multi-tenant rather than time-sliced:
// a small job arriving while a large one runs is granted a
// proportionally small worker share and starts immediately on free
// workers instead of queueing behind the large job's full-pool claim.

// AllocDecision records one admission decision for /stats: the job
// admitted, the finishing-time-equalizing targets over every job that
// was running at that moment, and the grant actually issued.
type AllocDecision struct {
	Job     string         `json:"job"`
	Targets map[string]int `json:"targets"`
	Grant   int            `json:"grant"`
	// Requested is the job's -p cap (0 = none), Running the number of
	// jobs the targets were balanced across (including this one).
	Requested int `json:"requested"`
	Running   int `json:"running"`
}

// jobLoad summarizes one job for the allocator.
type jobLoad struct {
	id    string
	tasks int // total tasks across operators, fixed at submission
}

// allocLog keeps the most recent admission decisions in a ring.
type allocLog struct {
	mu   sync.Mutex
	ring []AllocDecision
	next int
	full bool
}

const allocLogSize = 64

func (l *allocLog) add(d AllocDecision) {
	l.mu.Lock()
	if l.ring == nil {
		l.ring = make([]AllocDecision, allocLogSize)
	}
	l.ring[l.next] = d
	l.next = (l.next + 1) % allocLogSize
	if l.next == 0 {
		l.full = true
	}
	l.mu.Unlock()
}

// snapshot returns the logged decisions oldest-first.
func (l *allocLog) snapshot() []AllocDecision {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []AllocDecision
	if l.full {
		out = append(out, l.ring[l.next:]...)
	}
	out = append(out, l.ring[:l.next]...)
	return out
}

// admit computes the worker grant for a new job given the jobs
// currently running on a pool of size p. requested caps the grant
// (0 = no cap). The grant is always in [1, p]: the pool queue, not
// admission, handles the case where the grant exceeds the currently
// free workers.
func admit(newJob jobLoad, running []jobLoad, p, requested int) AllocDecision {
	loads := append(append([]jobLoad{}, running...), newJob)
	specs := make([]rts.OpSpec, len(loads))
	names := make([]string, len(loads))
	for i, l := range loads {
		n := l.tasks
		if n < 1 {
			n = 1
		}
		// Mu 1, Bytes 0 under a zero cost model: the finishing-time
		// estimate reduces to compute balance, the job's tasks over
		// granted workers.
		specs[i] = rts.OpSpec{Op: sched.Op{Name: l.id, N: n}, Mu: 1}
		names[i] = l.id
	}
	targets := rts.AllocateMany(native.CostModel, specs, p, nil, names...)
	d := AllocDecision{
		Job:       newJob.id,
		Targets:   map[string]int{},
		Requested: requested,
		Running:   len(loads),
	}
	for i, t := range targets {
		d.Targets[names[i]] = t
	}
	grant := targets[len(targets)-1]
	if requested > 0 && grant > requested {
		grant = requested
	}
	if grant < 1 {
		grant = 1
	}
	if grant > p {
		grant = p
	}
	d.Grant = grant
	return d
}
