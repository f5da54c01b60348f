package serve

import (
	"context"
	"sync"
	"time"

	er "repro"
)

// JobState is the lifecycle position of one job. Every job reaches exactly
// one of the terminal states (completed, failed, shed).
type JobState string

const (
	// JobQueued: admitted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: executing on a worker.
	JobRunning JobState = "running"
	// JobCompleted: terminal, resolved successfully.
	JobCompleted JobState = "completed"
	// JobFailed: terminal, ran (or was admitted) and produced an error.
	JobFailed JobState = "failed"
	// JobShed: terminal, dequeued but never run — its deadline could no
	// longer be met, or the server was draining.
	JobShed JobState = "shed"
)

// job is one admitted resolution request, from queue to terminal state.
type job struct {
	id      string
	class   string
	dataset *er.Dataset
	opts    er.Options
	probe   bool // admitted as a half-open breaker probe
	// run, when non-nil, replaces the configured Runner for this job (the
	// delta-scoped collection resolve path); dataset is then nil.
	run func(ctx context.Context) (*er.Result, error)

	// ctx carries the job deadline and every cancellation source (client
	// gone, drain kill); cancel releases it with an explicit cause, and
	// cleanup tears down the whole context chain (client link, deadline,
	// cancel) at the terminal transition.
	ctx     context.Context
	cancel  context.CancelCauseFunc
	cleanup func()

	enqueuedAt time.Time
	// done is closed by the worker at the terminal transition; the waiting
	// handler (and tests) observe results only after it closes.
	done chan struct{}

	mu        sync.Mutex
	state     JobState
	result    *er.Result
	err       error
	queueWait time.Duration
	runTime   time.Duration
}

// setState transitions the job under its lock.
func (j *job) setState(s JobState) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// view reads the job's mutable fields consistently.
func (j *job) view() (JobState, *er.Result, error, time.Duration, time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.err, j.queueWait, j.runTime
}

// store retains jobs for /jobs/{id} lookups: every live job plus a bounded
// history of terminal ones, evicted oldest-first.
type store struct {
	mu    sync.Mutex
	cap   int
	jobs  map[string]*job
	order []string // insertion order, for eviction
}

func newStore(capacity int) *store {
	return &store{cap: capacity, jobs: make(map[string]*job)}
}

// add registers a job, evicting the oldest terminal job when over
// capacity. Live jobs are never evicted — their count is bounded by the
// queue depth plus the worker pool, both configured.
func (s *store) add(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for len(s.order) > s.cap {
		evicted := false
		for i, id := range s.order {
			old, ok := s.jobs[id]
			if !ok {
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
			st, _, _, _, _ := old.view()
			if st == JobCompleted || st == JobFailed || st == JobShed {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything retained is live; allow temporary overflow
		}
	}
}

// get looks a job up by ID.
func (s *store) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}
