package jobs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"emp/internal/flight"
)

// fakeClock is a mutable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestStore(t *testing.T, cfg Config) (*Store, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg.Now = clk.Now
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = -1 // fake clock: sweep explicitly, not on a ticker
	}
	s := NewStore(cfg)
	t.Cleanup(s.Close)
	return s, clk
}

func TestSubmitDedupeByFingerprint(t *testing.T) {
	s, _ := newTestStore(t, Config{})
	j1, dup, err := s.Submit("fp-a", "ds-1", "2k")
	if err != nil || dup {
		t.Fatalf("first submit: dup=%v err=%v", dup, err)
	}
	j2, dup, err := s.Submit("fp-a", "ds-1", "2k")
	if err != nil || !dup {
		t.Fatalf("second submit: dup=%v err=%v", dup, err)
	}
	if j1 != j2 {
		t.Fatalf("duplicate submit returned a different job: %s vs %s", j1.ID(), j2.ID())
	}
	if got := s.Active(); got != 1 {
		t.Fatalf("active = %d, want 1 (dedup must not double-count)", got)
	}
	// A different fingerprint is a different job.
	j3, dup, err := s.Submit("fp-b", "ds-1", "2k")
	if err != nil || dup || j3 == j1 {
		t.Fatalf("distinct fingerprint: job=%v dup=%v err=%v", j3.ID(), dup, err)
	}
	// Once the job finishes, the fingerprint frees up for a fresh run.
	s.Finish(j1, "fp-a", 2, 5.0)
	j4, dup, err := s.Submit("fp-a", "ds-1", "2k")
	if err != nil || dup || j4 == j1 {
		t.Fatalf("resubmit after finish: job=%v dup=%v err=%v", j4.ID(), dup, err)
	}
}

func TestMaxActiveRejects(t *testing.T) {
	s, _ := newTestStore(t, Config{MaxActive: 2})
	if _, _, err := s.Submit("a", "k", "d"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit("b", "k", "d"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit("c", "k", "d"); err != ErrTooManyJobs {
		t.Fatalf("third submit err = %v, want ErrTooManyJobs", err)
	}
	// Duplicate submits still attach while full.
	if _, dup, err := s.Submit("a", "k", "d"); err != nil || !dup {
		t.Fatalf("dup submit while full: dup=%v err=%v", dup, err)
	}
}

func TestTTLEviction(t *testing.T) {
	s, clk := newTestStore(t, Config{TTL: time.Minute})
	j, _, _ := s.Submit("fp", "k", "d")
	s.Start(j)
	s.Finish(j, "fp", 3, 1.5)
	if _, ok := s.Get(j.ID()); !ok {
		t.Fatal("finished job should be fetchable before TTL")
	}
	clk.Advance(59 * time.Second)
	if _, ok := s.Get(j.ID()); !ok {
		t.Fatal("job evicted before TTL elapsed")
	}
	clk.Advance(2 * time.Second)
	if _, ok := s.Get(j.ID()); ok {
		t.Fatal("job still fetchable after TTL")
	}
}

// TestTTLExpiryRacingGet hammers Get from many goroutines while the clock
// crosses the TTL boundary: every call must return either (job, true) or
// (_, false), never a torn state, and the store must stay consistent. Run
// with -race.
func TestTTLExpiryRacingGet(t *testing.T) {
	s, clk := newTestStore(t, Config{TTL: time.Minute})
	j, _, _ := s.Submit("fp", "k", "d")
	s.Start(j)
	s.Finish(j, "fp", 3, 1.5)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 1000; i++ {
				if got, ok := s.Get(j.ID()); ok {
					if got.Snapshot().State != StateDone {
						t.Error("fetched job not done")
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 100; i++ {
			clk.Advance(time.Second)
		}
	}()
	close(start)
	wg.Wait()
	if _, ok := s.Get(j.ID()); ok {
		t.Fatal("job survived well past TTL")
	}
}

// TestByteBudgetEviction: a finished record is charged for what it holds —
// itself and the log its stream delivered, never its answer, which the
// result store holds — and past the byte bound the oldest-finished record
// is dropped whole.
func TestByteBudgetEviction(t *testing.T) {
	s, _ := newTestStore(t, Config{})
	const charge = recordBytes + 10*entryBytes // a record whose stream logged 10 entries
	const fit = retainBytes / charge
	var ids []string
	for i := 0; i <= fit; i++ {
		fp := fmt.Sprint("fp-", i)
		j, rec := running(t, s, fp)
		for p := 1; p <= 10; p++ {
			rec.Improve(p, float64(100-p), p, nil) // a new p is always logged
		}
		s.Finish(j, fp, 10, 90)
		ids = append(ids, j.ID())
	}
	if _, ok := s.Get(ids[0]); ok {
		t.Fatal("oldest finished job should have been evicted past the byte bound")
	}
	for _, id := range []string{ids[1], ids[fit]} {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("job %s evicted though within the bound", id)
		}
	}
	if st := s.StoreStats(); st.Retained != fit || st.UsedBytes != fit*charge {
		t.Fatalf("stats = %+v, want %d retained charged %d B each", st, fit, charge)
	}
}

// TestJobsListsFullStore: a store filled to its record bound with born-done
// jobs lists every one, oldest-created first (ties by id), quickly and
// without holding up the store: the sort runs outside its lock, so submits
// go on while a listing sorts.
func TestJobsListsFullStore(t *testing.T) {
	s, clk := newTestStore(t, Config{})
	n := retainBytes / recordBytes // born-done records deliver no log entries
	for i := 0; i < n; i++ {
		if i%1000 == 0 {
			clk.Advance(time.Millisecond) // both sort keys get exercised
		}
		s.SubmitDone(fmt.Sprint("fp-", i), "k", "d", fmt.Sprint("fp-", i), 1, 1)
	}
	if st := s.StoreStats(); st.Retained != n || st.UsedBytes != st.RetainBytes {
		t.Fatalf("stats = %+v, want %d records filling the bound exactly", st, n)
	}
	inOrder := func(list []*Job) {
		t.Helper()
		if len(list) != n {
			t.Fatalf("listed %d records, want %d", len(list), n)
		}
		for i := 1; i < len(list); i++ {
			a, b := list[i-1], list[i]
			if a.created.After(b.created) || (a.created.Equal(b.created) && a.id >= b.id) {
				t.Fatalf("records %d and %d out of order: (%v, %s) then (%v, %s)", i-1, i, a.created, a.id, b.created, b.id)
			}
		}
	}
	start := time.Now()
	list := s.Jobs()
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("listing %d records took %v, want under 2s", n, el)
	}
	inOrder(list)

	// Submits run while a listing sorts; each one past the bound evicts the
	// oldest record, so the store stays at the bound.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.SubmitDone(fmt.Sprint("live-", i), "k", "d", "live", 1, 1)
			}
		}
	}()
	inOrder(s.Jobs())
	close(stop)
	wg.Wait()
	if st := s.StoreStats(); st.Retained != n {
		t.Fatalf("retained %d records past the bound, want %d", st.Retained, n)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	s, _ := newTestStore(t, Config{})
	j, _, _ := s.Submit("fp", "k", "d")
	fired := false
	s.SetCancel(j, func() { fired = true })
	st, ok := s.Cancel(j.ID())
	if !ok || st != StateCanceled {
		t.Fatalf("cancel: state=%v ok=%v", st, ok)
	}
	if !fired {
		t.Fatal("cancel hook did not fire")
	}
	// The runner observing the cancellation must not flip the state.
	if s.Start(j) {
		t.Fatal("Start succeeded on a canceled job")
	}
	s.Fail(j, 499, "canceled while queued")
	if got := j.Snapshot().State; got != StateCanceled {
		t.Fatalf("state after late Fail = %v, want canceled", got)
	}
	// Terminal event stream: exactly one sealed "done" event with the state.
	evs, _, sealed := j.EventsSince(0)
	if !sealed || len(evs) != 1 || evs[0].Type != "done" || evs[0].State != "canceled" {
		t.Fatalf("events = %+v sealed=%v, want one terminal canceled event", evs, sealed)
	}
	// Cancel of a terminal job reports the state without changing anything.
	if st, ok := s.Cancel(j.ID()); !ok || st != StateCanceled {
		t.Fatalf("re-cancel: state=%v ok=%v", st, ok)
	}
}

// running submits and starts a job, returning it and its recorder.
func running(t *testing.T, s *Store, fp string) (*Job, *flight.Recorder) {
	t.Helper()
	j, _, err := s.Submit(fp, "k", "d")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(j)
	return j, j.Recorder()
}

func TestEventLogReplayAndLive(t *testing.T) {
	s, _ := newTestStore(t, Config{})
	j, rec := running(t, s, "fp")
	rec.SetPhase(flight.PhaseFeasibility)
	rec.Improve(5, 100, 0, nil) // a new p is always logged
	rec.SetPhase(flight.PhaseSearch)

	evs, next, sealed := j.EventsSince(0)
	if sealed || len(evs) != 3 {
		t.Fatalf("got %d events sealed=%v, want 3 live", len(evs), sealed)
	}
	// A same-(p,H) phase transition is a phase event, not a fake incumbent.
	if evs[0].Type != "phase" || evs[1].Type != "incumbent" || evs[2].Type != "phase" {
		t.Fatalf("event types = %s/%s/%s", evs[0].Type, evs[1].Type, evs[2].Type)
	}
	rec.Improve(6, 95, 10, nil)
	select {
	case <-next:
	case <-time.After(time.Second):
		t.Fatal("a logged entry did not wake the watcher channel")
	}
	// A resumed cursor types its first event against the entry before it.
	evs, _, _ = j.EventsSince(2)
	if len(evs) != 2 || evs[0].Type != "phase" || evs[1].Type != "incumbent" || evs[1].Seq != 3 || evs[1].P != 6 {
		t.Fatalf("resumed events = %+v, want the phase at seq 2 and the p=6 incumbent at seq 3", evs)
	}
	// An H-only improvement right after an entry may be held back from the
	// log; sealing the stream flushes it, so the stream ends on it.
	rec.Improve(6, 90, 11, nil)
	if st, _ := s.Cancel(j.ID()); st != StateCanceled {
		t.Fatalf("cancel = %v", st)
	}
	evs, _, sealed = j.EventsSince(4)
	if !sealed || len(evs) != 2 || evs[0].Type != "incumbent" || evs[0].H != 90 {
		t.Fatalf("terminal events = %+v sealed=%v, want the H=90 incumbent then done", evs, sealed)
	}
	final := evs[1]
	if final.Type != "done" || final.State != "canceled" || final.Seq != 5 || final.P != 6 || final.H != 90 || final.Moves != 11 {
		t.Fatalf("terminal event = %+v, want done/canceled at seq 5 carrying (6, 90)", final)
	}
	// Entries the solve logs after a cancel sealed the stream (it is still
	// winding down) stay out of it.
	rec.Improve(7, 1, 12, nil)
	if evs, _, _ := j.EventsSince(0); len(evs) != 6 || evs[5] != final {
		t.Fatalf("post-seal entry leaked: %+v", evs)
	}
	if snap := j.Snapshot(); snap.Events != 6 {
		t.Fatalf("status events = %d, want the 6 the stream delivers", snap.Events)
	}
}

// TestEventsSinceCursorPastSealedEnd: a cursor beyond a sealed stream (a
// watcher re-dialing after a restart with the old run's cursor) still gets
// the terminal event, and only it.
func TestEventsSinceCursorPastSealedEnd(t *testing.T) {
	s, _ := newTestStore(t, Config{})
	j, rec := running(t, s, "fp")
	rec.Improve(4, 40, 0, nil)
	rec.Finish(4, 40)
	s.Finish(j, "fp", 4, 40)
	born := s.SubmitDone("fp-2", "k", "d", "fp-2", 4, 40)
	for _, tc := range []struct {
		name string
		j    *Job
		end  int
	}{{"finished", j, 2}, {"born done", born, 0}} {
		for _, since := range []int{tc.end, tc.end + 1, 30, 1_000_000} {
			evs, _, sealed := tc.j.EventsSince(since)
			if !sealed || len(evs) != 1 || evs[0].Type != "done" || evs[0].Seq != tc.end || evs[0].P != 4 {
				t.Errorf("%s: EventsSince(%d) = %+v sealed=%v, want exactly the done event at seq %d", tc.name, since, evs, sealed, tc.end)
			}
		}
	}
}

func TestWarmSeedIndex(t *testing.T) {
	s, _ := newTestStore(t, Config{})
	j1, _, _ := s.Submit("fp-1", "ds-A", "2k")
	s.Start(j1)
	s.Finish(j1, "fp-1", 2, 4)

	// Same dataset, different constraints (fingerprint) → warm seed found,
	// named by its answer's key.
	key, fromID, ok := s.WarmSeed("ds-A", "fp-2")
	if !ok || fromID != j1.ID() || key != "fp-1" {
		t.Fatalf("WarmSeed = %q %q %v", key, fromID, ok)
	}
	// Identical fingerprint is excluded (that's a cache hit, not a warm start).
	if _, _, ok := s.WarmSeed("ds-A", "fp-1"); ok {
		t.Fatal("WarmSeed matched the excluded fingerprint")
	}
	// Unknown dataset key has no seed.
	if _, _, ok := s.WarmSeed("ds-B", "fp-2"); ok {
		t.Fatal("WarmSeed invented a seed for an unknown dataset")
	}
	// A newer finished job replaces the index entry.
	j2, _, _ := s.Submit("fp-2", "ds-A", "2k")
	s.Start(j2)
	s.Finish(j2, "job/"+j2.ID(), 2, 3)
	if key, fromID, ok := s.WarmSeed("ds-A", "other"); !ok || fromID != j2.ID() || key != "job/"+j2.ID() {
		t.Fatalf("warm index not updated: key=%q from=%q ok=%v", key, fromID, ok)
	}
}

func TestSubmitDoneOnArrival(t *testing.T) {
	s, _ := newTestStore(t, Config{})
	j := s.SubmitDone("fp", "ds-A", "2k", "fp", 2, 7.5)
	snap := j.Snapshot()
	if snap.State != StateDone || snap.ResultKey != "fp" || snap.P != 2 || snap.H != 7.5 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := s.Active(); got != 0 {
		t.Fatalf("done-on-arrival job counts active: %d", got)
	}
	evs, _, sealed := j.EventsSince(0)
	if !sealed || len(evs) != 1 || evs[0].Type != "done" || evs[0].P != 2 || evs[0].H != 7.5 {
		t.Fatalf("events = %+v sealed=%v", evs, sealed)
	}
	// It seeds warm starts for later jobs on the dataset.
	if _, fromID, ok := s.WarmSeed("ds-A", "other-fp"); !ok || fromID != j.ID() {
		t.Fatalf("done-on-arrival job not in warm index: %q %v", fromID, ok)
	}
}

// TestConcurrentAppendAndWatch: a watcher following the stream while the
// solve records, held incumbents included, sees every event exactly once,
// in sequence, up to the terminal event at the log's end.
func TestConcurrentAppendAndWatch(t *testing.T) {
	s, _ := newTestStore(t, Config{})
	j, rec := running(t, s, "fp")
	const samples = 500
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= samples; i++ {
			rec.Improve(i, float64(samples-i)+1, 2*i, nil)     // a new p: logged
			rec.Improve(i, float64(samples-i)+0.5, 2*i+1, nil) // H only: usually held
		}
		s.Finish(j, "fp", samples, 0.5)
	}()
	// Watcher: follow the log to the terminal event, checking the cursor
	// contract (no gaps, no duplicates).
	seen := 0
	var last Event
	for {
		evs, next, sealed := j.EventsSince(seen)
		for _, ev := range evs {
			if ev.Seq != seen {
				t.Fatalf("sequence gap: got %d want %d", ev.Seq, seen)
			}
			seen++
			last = ev
		}
		if sealed {
			break
		}
		if len(evs) == 0 {
			select {
			case <-next:
			case <-time.After(5 * time.Second):
				t.Fatal("watcher starved")
			}
		}
	}
	<-done
	if last.Type != "done" || last.Seq != rec.Len() || seen < samples+1 {
		t.Fatalf("saw %d events ending on %+v, want at least %d ending on done at seq %d", seen, last, samples+1, rec.Len())
	}
}
