package solvecache

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"emp/internal/obs"
)

// ErrOverloaded is returned by Scheduler.Acquire when the queue is full or
// the wait-time budget elapsed before a worker freed up. HTTP callers map it
// to 429 with a Retry-After hint.
var ErrOverloaded = errors.New("solvecache: overloaded: no solve capacity within budget")

// SchedulerMetrics carries the optional registry hooks of one Scheduler.
// All fields may be nil.
type SchedulerMetrics struct {
	// Depth tracks the number of callers currently queued for a worker.
	Depth *obs.Gauge
	// Wait times how long admitted and rejected callers sat in the queue.
	Wait *obs.Histogram
	// Rejected counts ErrOverloaded outcomes (queue full or budget spent).
	Rejected *obs.Counter
	// Abandoned counts callers whose context ended while queued.
	Abandoned *obs.Counter
}

// Scheduler bounds concurrent solve work: a fixed worker pool fed by a FIFO
// queue with a depth bound and a wait-time budget. Go's channel wait queues
// are FIFO, so queued callers acquire slots roughly in arrival order. The
// scheduler carries no work itself — callers Acquire a slot, run their
// solve, and release — so cache hits and deduped followers never touch it.
type Scheduler struct {
	slots   chan struct{}
	depth   int
	wait    time.Duration
	waiting atomic.Int64
	met     SchedulerMetrics
}

// NewScheduler builds a scheduler with the given worker-pool size, queue
// depth and queue wait budget. workers <= 0 defaults to GOMAXPROCS (solves
// are CPU-bound; more workers than cores only adds contention). depth == 0
// defaults to 4x workers; depth < 0 disables queueing entirely (a busy pool
// rejects immediately). wait <= 0 defaults to 10s.
func NewScheduler(workers, depth int, wait time.Duration, met SchedulerMetrics) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth == 0 {
		depth = 4 * workers
	}
	if depth < 0 {
		depth = 0
	}
	if wait <= 0 {
		wait = 10 * time.Second
	}
	return &Scheduler{
		slots: make(chan struct{}, workers),
		depth: depth,
		wait:  wait,
		met:   met,
	}
}

// Workers returns the worker-pool size.
func (s *Scheduler) Workers() int { return cap(s.slots) }

// Saturated reports whether a new solve would be rejected (queue at its depth
// bound, or no queue and every worker busy). The readiness probe uses it to
// take the instance out of rotation before the scheduler starts shedding
// with 429.
func (s *Scheduler) Saturated() bool {
	if int(s.waiting.Load()) >= s.depth {
		return len(s.slots) == cap(s.slots)
	}
	return false
}

// RetryAfterSeconds is the Retry-After hint for rejected callers: the queue
// wait budget rounded up to a whole second, i.e. the horizon after which a
// retry sees a meaningfully different queue.
func (s *Scheduler) RetryAfterSeconds() int {
	sec := int((s.wait + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// Acquire claims a worker slot, queueing up to the depth bound and wait
// budget. It returns the release function on success; ErrOverloaded when the
// queue is full or the budget elapses; ctx.Err() when the caller's context
// ends while queued. The caller must invoke release exactly once.
func (s *Scheduler) Acquire(ctx context.Context) (release func(), err error) {
	// Fast path: a worker is free, skip the queue accounting.
	select {
	case s.slots <- struct{}{}:
		return s.release, nil
	default:
	}
	if int(s.waiting.Add(1)) > s.depth {
		s.waiting.Add(-1)
		s.met.Rejected.Inc()
		return nil, ErrOverloaded
	}
	s.met.Depth.Add(1)
	defer func() {
		s.met.Depth.Add(-1)
		s.waiting.Add(-1)
	}()
	span := s.met.Wait.Start()
	defer span.End()
	timer := time.NewTimer(s.wait)
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		return s.release, nil
	case <-timer.C:
		s.met.Rejected.Inc()
		return nil, ErrOverloaded
	case <-ctx.Done():
		s.met.Abandoned.Inc()
		return nil, ctx.Err()
	}
}

// release returns a worker slot to the pool.
func (s *Scheduler) release() { <-s.slots }
