// Package jobs is the async solve job subsystem behind POST /v1/jobs: a
// bounded in-memory job registry with TTL eviction, a fingerprint index for
// duplicate-submit dedup and a dataset index for warm starts, plus the
// per-job event stream behind the SSE/NDJSON responses of
// GET /v1/jobs/{id}/events.
//
// The store owns job identity and lifecycle (queued → running → one of
// done/failed/canceled); the HTTP layer owns execution (scheduler slots,
// the solve itself) and calls the transition methods. A job holds no
// answer: a done job names it by key in the server's result store, and
// keeps its state, p and H when that store evicts it. Nor does a job keep
// an event log of its own: its stream reads the solve's flight-recorder log
// by index, so the stream and the /v1/debug convergence curve are one
// sequence. The terminal transition seals the stream at the log's length
// and puts the "done" event there.
package jobs

import (
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"slices"
	"strings"
	"sync"
	"time"

	"emp/internal/flight"
)

// State is a job's lifecycle position.
type State uint8

const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled
)

var stateNames = [...]string{"queued", "running", "done", "failed", "canceled"}

// String returns the lowercase wire spelling of the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// Terminal reports whether the state is final (no further transitions).
func (s State) Terminal() bool { return s >= StateDone }

// Event is one entry of a job's event stream: an incumbent improvement, a
// phase transition, or the terminal marker. Seq is the entry's index in the
// solve's flight-recorder log (the terminal event sits at the log's length
// when the job was sealed); watchers resume from the sequence number they
// last saw.
type Event struct {
	Seq       int     `json:"seq"`
	Type      string  `json:"type"` // "incumbent" | "phase" | "done"
	ElapsedMs float64 `json:"elapsed_ms"`
	Phase     string  `json:"phase,omitempty"`
	P         int     `json:"p"`
	H         float64 `json:"h"`
	Moves     int     `json:"moves,omitempty"`
	// State is set on the terminal "done" event only: the job's final state
	// ("done", "failed" or "canceled"), so a stream consumer knows how the
	// solve ended without a follow-up status GET.
	State string `json:"state,omitempty"`
}

// Errors the store reports to the submission path.
var (
	// ErrTooManyJobs rejects a submit when MaxActive jobs are already
	// queued or running; the HTTP layer maps it onto 429.
	ErrTooManyJobs = errors.New("jobs: too many active jobs")
)

// Config tunes the store. The zero value is usable.
type Config struct {
	// TTL is how long a finished job stays fetchable after it reaches a
	// terminal state; 0 means DefaultTTL.
	TTL time.Duration
	// MaxActive bounds queued+running jobs; 0 means DefaultMaxActive.
	MaxActive int
	// SweepInterval is the background expiry sweeper's tick: TTL'd jobs are
	// reclaimed on the ticker, not only lazily on the next access, so an
	// idle server does not keep expired records.
	// 0 means DefaultSweepInterval; negative disables the sweeper (tests
	// that drive a fake clock sweep explicitly).
	SweepInterval time.Duration
	// OnTransition, when set, observes every committed lifecycle transition
	// after the store releases its lock: StateRunning, StateDone,
	// StateFailed, StateCanceled. Jobs born terminal (SubmitDone — a result
	// cache hit, nothing to recover) are not reported. The durable layer
	// journals transitions through this hook; because it fires outside the
	// lock, observers must tolerate reordered deliveries (the journal's
	// replay is terminal-state-wins for exactly this reason).
	OnTransition func(j *Job, st State)
	// Now is the clock, for tests; nil means time.Now.
	Now func() time.Time
}

// Store defaults (see docs/JOBS.md for sizing rationale).
const (
	// DefaultTTL keeps finished jobs fetchable long enough for a client
	// polling at human timescales to collect its result.
	DefaultTTL = 15 * time.Minute
	// DefaultMaxActive bounds admitted-but-unfinished jobs; admission
	// control for the async path (the sync path's queue bound does not
	// apply — jobs wait for workers as long as they live).
	DefaultMaxActive = 64
	// DefaultSweepInterval paces the background expiry sweeper: frequent
	// enough that an idle server's retained records track the TTL, rare
	// enough to be free.
	DefaultSweepInterval = time.Minute
)

// Finished records are charged recordBytes each plus entryBytes per event
// their stream delivered; past retainBytes the oldest-finished record goes.
// A record holds no answer, so its charge does not grow with the area
// count: about 1 KB for a 30k1 job, and the bound, the flight recorder's
// budget for the same kind of data, keeps over 8,000 of them.
const (
	retainBytes = 8 << 20
	recordBytes = 256
	entryBytes  = 32
)

// Store is the bounded job registry. All exported methods are safe for
// concurrent use.
type Store struct {
	ttl          time.Duration
	maxActive    int
	now          func() time.Time
	onTransition func(j *Job, st State) // immutable after NewStore

	mu        sync.Mutex
	byID      map[string]*Job
	byFP      map[string]*Job // active (non-terminal) jobs by fingerprint
	warmByKey map[string]*Job // newest done job, whose answer can seed a warm start, per dataset key
	done      []*Job          // finish order, oldest first
	doneBytes int64
	active    int

	stopSweep chan struct{}
	closeOnce sync.Once
}

// NewStore builds a store from the config and starts its background expiry
// sweeper (unless disabled); callers that own a store's lifecycle should
// Close it.
func NewStore(cfg Config) *Store {
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = DefaultMaxActive
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = DefaultSweepInterval
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Store{
		ttl:          cfg.TTL,
		maxActive:    cfg.MaxActive,
		now:          cfg.Now,
		onTransition: cfg.OnTransition,
		byID:         make(map[string]*Job),
		byFP:         make(map[string]*Job),
		warmByKey:    make(map[string]*Job),
		stopSweep:    make(chan struct{}),
	}
	if cfg.SweepInterval > 0 {
		go s.sweeper(cfg.SweepInterval)
	}
	return s
}

// sweeper reclaims TTL'd jobs on a ticker until Close.
func (s *Store) sweeper(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case <-t.C:
			s.Sweep()
		}
	}
}

// Sweep evicts finished jobs past their TTL now. The background sweeper
// calls it on its ticker; it is exported for tests and for callers that want
// a deterministic reclaim point.
func (s *Store) Sweep() {
	s.mu.Lock()
	s.sweepLocked()
	s.mu.Unlock()
}

// Close stops the background sweeper. The store stays usable — Close only
// ends the goroutine, it does not seal the registry.
func (s *Store) Close() {
	s.closeOnce.Do(func() { close(s.stopSweep) })
}

// notifyTransition fires the transition observer. Called after s.mu is
// released: the hook does file I/O (journal appends) and must not nest under
// the store lock.
func (s *Store) notifyTransition(j *Job, st State) {
	if s.onTransition != nil {
		s.onTransition(j, st)
	}
}

// Job is one tracked solve. Identity fields are immutable after creation;
// lifecycle state is guarded by the store mutex, the event stream by its own
// mutex (watchers poll it and must not contend with store-wide operations).
type Job struct {
	id          string
	fingerprint string
	datasetKey  string
	dataset     string // display label ("2k", "inline")
	created     time.Time

	store *Store

	// Guarded by store.mu.
	state     State
	started   time.Time
	finished  time.Time
	cancel    func()
	traceID   string
	resultKey string // the done job's answer, by its key in the result store
	warmFrom  string // id of the job whose result seeded this one
	errStatus int
	errMsg    string

	// rec is the solve's flight recorder, whose log the event stream reads.
	rec *flight.Recorder
	// final is the terminal event, at the log's length when the job was
	// sealed; nil until then. Guarded by evMu; terminal transitions write it
	// under store.mu as well, so either lock reads it.
	evMu  sync.Mutex
	final *Event
}

// newID returns a 16-hex-char random job id. IDs are capability-ish tokens
// (anyone with the id can watch or cancel the job) so they come from
// crypto/rand; on entropy failure the store falls back to a clock-derived id
// rather than refusing work.
func (s *Store) newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		v := uint64(s.now().UnixNano())
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// Submit registers a new job for the fingerprint, or returns the active job
// already running it (dup=true): duplicate submits attach to one solve, like
// the sync path's singleflight. ErrTooManyJobs rejects past MaxActive.
func (s *Store) Submit(fingerprint, datasetKey, dataset string) (j *Job, dup bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	if existing, ok := s.byFP[fingerprint]; ok {
		return existing, true, nil
	}
	if s.active >= s.maxActive {
		return nil, false, ErrTooManyJobs
	}
	j = s.newJobLocked(fingerprint, datasetKey, dataset)
	j.state = StateQueued
	s.byFP[fingerprint] = j
	s.active++
	return j, false, nil
}

// SubmitDone registers a job that is done on arrival: its fingerprint hit
// the result store, so the job is born terminal, naming the stored answer
// by resultKey, with a single "done" event carrying its (p, H). It never
// counts against MaxActive.
func (s *Store) SubmitDone(fingerprint, datasetKey, dataset, resultKey string, p int, h float64) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	j := s.newJobLocked(fingerprint, datasetKey, dataset)
	s.retireBornDoneLocked(j, resultKey, p, h)
	return j
}

// retireBornDoneLocked seals a job that is terminal on arrival — never
// queued, never active — with its answer's key and single "done" event,
// and moves it to the finished FIFO. Caller holds s.mu.
func (s *Store) retireBornDoneLocked(j *Job, resultKey string, p int, h float64) {
	j.state = StateDone
	j.started = j.created
	j.finished = j.created
	j.setResultLocked(resultKey)
	j.seal(StateDone, true, p, h)
	s.retireLocked(j)
}

// newJobLocked allocates and indexes a job under a fresh id. Caller holds
// s.mu.
func (s *Store) newJobLocked(fingerprint, datasetKey, dataset string) *Job {
	id := s.newID()
	for s.byID[id] != nil { // vanishing collision odds, but ids must be unique
		id = s.newID()
	}
	return s.addJobLocked(id, fingerprint, datasetKey, dataset)
}

// addJobLocked allocates a job under id and indexes it by id; it is the only
// place a Job is built. Caller holds s.mu.
func (s *Store) addJobLocked(id, fingerprint, datasetKey, dataset string) *Job {
	j := &Job{
		id:          id,
		fingerprint: fingerprint,
		datasetKey:  datasetKey,
		dataset:     dataset,
		created:     s.now(),
		store:       s,
		rec:         flight.NewRecorder(),
	}
	s.byID[id] = j
	return j
}

// Get returns the job by id; false when unknown or expired. Expiry is
// enforced lazily here and on submits, so a TTL-expired job disappears on
// its next lookup even if nothing else churns the store.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	j, ok := s.byID[id]
	return j, ok
}

// Active returns the number of queued or running jobs.
func (s *Store) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Jobs returns every tracked job, oldest-created first. Only the copy runs
// under the store lock: created and id never change after a job is built,
// so the sort needs none, and submits and status reads do not wait for it.
func (s *Store) Jobs() []*Job {
	s.mu.Lock()
	s.sweepLocked()
	out := make([]*Job, 0, len(s.byID))
	for _, j := range s.byID {
		out = append(out, j)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b *Job) int {
		return cmp.Or(a.created.Compare(b.created), strings.Compare(a.id, b.id))
	})
	return out
}

// SetCancel installs the job's cancellation hook (the solve context's
// cancel func). Installed by the runner before it starts executing; Cancel
// invokes it.
func (s *Store) SetCancel(j *Job, fn func()) {
	s.mu.Lock()
	j.cancel = fn
	s.mu.Unlock()
}

// SetTrace records the job's solve trace id (the /v1/debug/trace handle).
func (s *Store) SetTrace(j *Job, traceID string) {
	s.mu.Lock()
	j.traceID = traceID
	s.mu.Unlock()
}

// SetWarmFrom marks the job as warm-started from a prior job's partition.
func (s *Store) SetWarmFrom(j *Job, seedJobID string) {
	s.mu.Lock()
	j.warmFrom = seedJobID
	s.mu.Unlock()
}

// Start transitions queued → running; false when the job was canceled while
// queued (the runner must release its slot and walk away).
func (s *Store) Start(j *Job) bool {
	s.mu.Lock()
	if j.state != StateQueued {
		s.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.started = s.now()
	s.mu.Unlock()
	s.notifyTransition(j, StateRunning)
	return true
}

// Finish transitions the job to done. resultKey names its answer in the
// result store; the store's warm-start lookup offers it to later submissions
// on the same dataset. (p, H) is the answer's, carried by the terminal
// event. No-op when the job is already terminal (a cancel won the race).
func (s *Store) Finish(j *Job, resultKey string, p int, h float64) {
	s.mu.Lock()
	if j.state.Terminal() {
		s.mu.Unlock()
		return
	}
	j.state = StateDone
	j.finished = s.now()
	j.setResultLocked(resultKey)
	j.seal(StateDone, true, p, h)
	s.retireLocked(j)
	s.mu.Unlock()
	s.notifyTransition(j, StateDone)
}

// Fail transitions the job to failed with the error the status endpoint
// reports. No-op when already terminal (e.g. canceled: the runner's 499
// mapping must not overwrite the canceled state).
func (s *Store) Fail(j *Job, status int, msg string) {
	s.mu.Lock()
	if j.state.Terminal() {
		s.mu.Unlock()
		return
	}
	j.state = StateFailed
	j.finished = s.now()
	j.errStatus = status
	j.errMsg = msg
	j.seal(StateFailed, false, 0, 0)
	s.retireLocked(j)
	s.mu.Unlock()
	s.notifyTransition(j, StateFailed)
}

// Cancel marks the job canceled and fires its cancellation hook. Returns the
// job's state after the call and whether the id was known: canceling an
// already-terminal job is a no-op that reports the terminal state.
func (s *Store) Cancel(id string) (State, bool) {
	s.mu.Lock()
	j, ok := s.byID[id]
	if !ok {
		s.mu.Unlock()
		return 0, false
	}
	if j.state.Terminal() {
		st := j.state
		s.mu.Unlock()
		return st, true
	}
	cancel := j.cancel
	j.state = StateCanceled
	j.finished = s.now()
	j.seal(StateCanceled, false, 0, 0)
	s.retireLocked(j)
	s.mu.Unlock()
	// Fire outside the lock: the hook cancels a context, which may run
	// arbitrary AfterFunc-style callbacks.
	if cancel != nil {
		cancel()
	}
	s.notifyTransition(j, StateCanceled)
	return StateCanceled, true
}

// WarmSeed names the newest done job on the dataset key and its answer's
// key in the result store, whose assignment can seed a new solve's
// construction — unless that job IS the submission (same fingerprint:
// identical requests warm-starting from themselves would be a no-op
// pretending to be one). The caller reads the answer from the result store;
// an answer it has evicted seeds nothing.
func (s *Store) WarmSeed(datasetKey, excludeFingerprint string) (resultKey, jobID string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	j := s.warmByKey[datasetKey]
	if j == nil || j.fingerprint == excludeFingerprint {
		return "", "", false
	}
	return j.resultKey, j.id, true
}

// setResultLocked records the done job's answer key and indexes the job for
// warm-start lookups. Caller holds store.mu.
func (j *Job) setResultLocked(resultKey string) {
	if resultKey == "" {
		return
	}
	j.resultKey = resultKey
	j.store.warmByKey[j.datasetKey] = j
}

// retireLocked moves a job out of the active set into the finished FIFO and
// evicts the oldest-finished records past the byte bound. Caller holds s.mu.
func (s *Store) retireLocked(j *Job) {
	if cur, ok := s.byFP[j.fingerprint]; ok && cur == j {
		delete(s.byFP, j.fingerprint)
		s.active--
	}
	j.cancel = nil
	s.done = append(s.done, j)
	s.doneBytes += j.retainedCost()
	for len(s.done) > 0 && s.doneBytes > retainBytes {
		s.evictLocked(s.done[0])
	}
}

// retainedCost approximates the finished record's resident bytes: the
// record itself and the log its stream delivered. Its answer lives, and is
// charged, in the result store. Caller holds s.mu, and the job is sealed.
func (j *Job) retainedCost() int64 {
	return recordBytes + int64(j.final.Seq)*entryBytes
}

// evictLocked drops a finished job entirely. Caller holds s.mu.
func (s *Store) evictLocked(j *Job) {
	for i, d := range s.done {
		if d == j {
			s.done = append(s.done[:i], s.done[i+1:]...)
			s.doneBytes -= j.retainedCost()
			break
		}
	}
	delete(s.byID, j.id)
	if s.warmByKey[j.datasetKey] == j {
		delete(s.warmByKey, j.datasetKey)
	}
}

// sweepLocked evicts finished jobs past their TTL. Caller holds s.mu.
func (s *Store) sweepLocked() {
	cutoff := s.now().Add(-s.ttl)
	for len(s.done) > 0 && s.done[0].finished.Before(cutoff) {
		s.evictLocked(s.done[0])
	}
}

// Stats summarizes the store for the debug/cache view and metrics.
type Stats struct {
	Active      int   `json:"active"`
	Retained    int   `json:"retained"`
	RetainBytes int64 `json:"retain_bytes"`
	UsedBytes   int64 `json:"used_bytes"`
}

// StoreStats returns occupancy numbers.
func (s *Store) StoreStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Active: s.active, Retained: len(s.done), RetainBytes: retainBytes, UsedBytes: s.doneBytes}
}

// ---- Job accessors (immutable or store-mutex-guarded reads) ----

// ID returns the job id.
func (j *Job) ID() string { return j.id }

// Fingerprint returns the solve fingerprint the job was submitted under.
func (j *Job) Fingerprint() string { return j.fingerprint }

// Dataset returns the display label of the job's dataset.
func (j *Job) Dataset() string { return j.dataset }

// Snapshot is a consistent read of the job's lifecycle state.
type Snapshot struct {
	ID       string
	State    State
	Dataset  string
	TraceID  string
	WarmFrom string
	Created  time.Time
	Started  time.Time
	Finished time.Time
	// ResultKey names a done job's answer in the result store.
	ResultKey string
	ErrStatus int
	ErrMsg    string
	Recorder  *flight.Recorder
	Events    int
	// P and H are the sealed terminal event's; zero until the job is sealed.
	P int
	H float64
}

// Snapshot returns the job's current lifecycle state in one consistent read.
func (j *Job) Snapshot() Snapshot {
	j.store.mu.Lock()
	snap := Snapshot{
		ID:        j.id,
		State:     j.state,
		Dataset:   j.dataset,
		TraceID:   j.traceID,
		WarmFrom:  j.warmFrom,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
		ResultKey: j.resultKey,
		ErrStatus: j.errStatus,
		ErrMsg:    j.errMsg,
		Recorder:  j.rec,
	}
	j.store.mu.Unlock()
	j.evMu.Lock()
	if j.final != nil {
		snap.Events = j.final.Seq + 1
		snap.P, snap.H = j.final.P, j.final.H
	} else {
		snap.Events = j.rec.Len()
	}
	j.evMu.Unlock()
	return snap
}

// ---- Event stream ----

// Recorder returns the job's flight recorder: the solve records into it, and
// the event stream reads its log.
func (j *Job) Recorder() *flight.Recorder { return j.rec }

// seal ends the job's event stream: the recorder logs its held incumbent
// and wakes the watchers, the stream stops at the log's length, and the
// terminal event goes there. A finished job's event carries the result's
// (p, H) (hasResult); a failed or canceled one carries the log's newest
// incumbent. Called once, by the store's terminal transitions, under
// store.mu; evMu nests inside.
func (j *Job) seal(final State, hasResult bool, p int, h float64) {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	n, last := j.rec.Flush()
	if !hasResult {
		p, h = last.P, last.H
	}
	j.final = &Event{
		Seq:       n,
		Type:      "done",
		ElapsedMs: float64(last.ElapsedNs) / 1e6,
		Phase:     "done",
		P:         p,
		H:         h,
		Moves:     last.Moves,
		State:     final.String(),
	}
}

// EventsSince returns the events at sequence >= since, a channel closed when
// more may be available, and whether the stream is sealed (its terminal
// event is in evs). Log entry i is event i: an "incumbent" when it changes
// (p, H) from entry i-1 (or from (0, 0) for the first), a "phase" event
// otherwise. A sealed stream always delivers its terminal event, even to a
// cursor past it — a watcher resuming after a restart holds the old run's
// cursor. The watcher loop is: drain the returned events, then either stop
// (sealed) or wait on the channel. Sequence numbers are the cursor, so a
// watcher never misses or double-sees an event.
func (j *Job) EventsSince(since int) (evs []Event, next <-chan struct{}, sealed bool) {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	since = max(since, 0)
	// The entry before the cursor types the first event returned.
	log, next := j.rec.Log(since - 1)
	var prevP int
	var prevH float64
	if since > 0 && len(log) > 0 {
		prevP, prevH = log[0].P, log[0].H
		log = log[1:]
	}
	for i, s := range log {
		seq := since + i
		if j.final != nil && seq >= j.final.Seq {
			break // logged after a cancel sealed the stream
		}
		typ := "phase"
		if s.P != prevP || s.H != prevH {
			typ = "incumbent"
		}
		prevP, prevH = s.P, s.H
		evs = append(evs, Event{
			Seq:       seq,
			Type:      typ,
			ElapsedMs: float64(s.ElapsedNs) / 1e6,
			Phase:     s.Phase,
			P:         s.P,
			H:         s.H,
			Moves:     s.Moves,
		})
	}
	if j.final != nil {
		evs = append(evs, *j.final)
	}
	return evs, next, j.final != nil
}
