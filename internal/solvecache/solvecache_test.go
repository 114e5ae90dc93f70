package solvecache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"emp/internal/obs"
)

func TestKeyBoundaries(t *testing.T) {
	if Key("a", "bc") == Key("ab", "c") {
		t.Error("part boundaries must not collide")
	}
	if Key("a", "") == Key("a") {
		t.Error("empty trailing part must change the key")
	}
	if Key("x") != Key("x") {
		t.Error("key must be deterministic")
	}
	if len(Key("x")) != 64 {
		t.Errorf("key length = %d, want 64 hex chars", len(Key("x")))
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(10)
	c.Add("a", 1, 4)
	c.Add("b", 2, 4)
	if _, ok := c.Get("a"); !ok { // a becomes most recently used
		t.Fatal("a missing")
	}
	c.Add("c", 3, 4) // over bound: evicts b (cold end), not a
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be cached")
	}
	if c.Cost() != 8 {
		t.Errorf("cost = %d, want 8", c.Cost())
	}
	// A Peek does not refresh recency: a, the cold end since c was read,
	// stays the cold end after a Peek.
	c.Peek("a")
	c.Add("d", 4, 4)
	if _, ok := c.Peek("a"); ok {
		t.Error("a should have been evicted: Peek must not refresh it")
	}
	if _, ok := c.Peek("c"); !ok {
		t.Error("c should have survived")
	}
}

func TestLRUEntriesColdToHot(t *testing.T) {
	c := NewLRU(100)
	c.Add("a", 1, 4)
	c.Add("b", 2, 6)
	c.Add("c", 3, 8)
	c.Get("a") // a becomes hottest: order must now be b, c, a
	got := c.Entries()
	if len(got) != 3 {
		t.Fatalf("entries = %d, want 3", len(got))
	}
	wantKeys := []string{"b", "c", "a"}
	for i, e := range got {
		if e.Key != wantKeys[i] {
			t.Fatalf("order = %v, want %v", got, wantKeys)
		}
	}
	if got[0].Val.(int) != 2 || got[0].Cost != 6 {
		t.Fatalf("entry b = %+v", got[0])
	}
	// Replaying in order into a fresh cache reproduces the recency ranking:
	// a small bound evicts the same cold entry both times.
	c2 := NewLRU(14)
	for _, e := range got {
		c2.Add(e.Key, e.Val, e.Cost)
	}
	if _, ok := c2.Get("b"); ok {
		t.Error("replayed cache should have evicted cold b")
	}
	if _, ok := c2.Get("a"); !ok {
		t.Error("replayed cache lost hot a")
	}
}

func TestLRUReplaceAndOversize(t *testing.T) {
	c := NewLRU(10)
	c.Add("a", 1, 4)
	c.Add("a", 2, 6) // replace updates cost in place
	if c.Cost() != 6 || c.Len() != 1 {
		t.Errorf("cost=%d len=%d after replace", c.Cost(), c.Len())
	}
	if v, _ := c.Get("a"); v != 2 {
		t.Errorf("value = %v after replace", v)
	}
	c.Add("huge", 3, 11) // larger than the whole bound: not cached
	if _, ok := c.Get("huge"); ok {
		t.Error("oversize entry cached")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("oversize add must not evict existing entries")
	}
}

func TestLRUDisabledAndMetrics(t *testing.T) {
	// A cache has no disabled mode: a non-positive bound is refused.
	for _, bound := range []int64{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLRU(%d) returned a cache, want a panic", bound)
				}
			}()
			NewLRU(bound)
		}()
	}

	reg := obs.New()
	reg.SetEnabled(true)
	c := NewLRU(4)
	hits := reg.Counter("h", "")
	misses := reg.Counter("m", "")
	evs := reg.Counter("e", "")
	c.SetMetrics(CacheMetrics{Hits: hits, Misses: misses, Evictions: evs, Cost: reg.Gauge("c", "")})
	c.Get("a")
	c.Add("a", 1, 3)
	c.Get("a")
	// Peek reads without counting and without refreshing recency.
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Errorf("Peek(a) = %v, %v", v, ok)
	}
	if _, ok := c.Peek("zz"); ok {
		t.Error("Peek invented an entry")
	}
	c.Add("b", 2, 3) // evicts a
	if hits.Value() != 1 || misses.Value() != 1 || evs.Value() != 1 {
		t.Errorf("hits=%d misses=%d evictions=%d", hits.Value(), misses.Value(), evs.Value())
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want the one hit and one miss of Get", st)
	}
}

func TestGroupDedup(t *testing.T) {
	var g Group
	var calls atomic.Int64
	gate := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	shared := make([]bool, n)
	vals := make([]any, n)
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			v, sh, err := g.Do(context.Background(), "k", func(context.Context) (any, error) {
				calls.Add(1)
				<-gate // hold the flight open until every caller joined
				return 42, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			vals[i], shared[i] = v, sh
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	time.Sleep(20 * time.Millisecond) // let every goroutine reach Do
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	nShared := 0
	for i := 0; i < n; i++ {
		if vals[i] != 42 {
			t.Errorf("caller %d value = %v", i, vals[i])
		}
		if shared[i] {
			nShared++
		}
	}
	if nShared != n-1 {
		t.Errorf("shared callers = %d, want %d", nShared, n-1)
	}
}

func TestGroupCancelLastCallerStopsFlight(t *testing.T) {
	var g Group
	fnCtxDone := make(chan struct{})
	running := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	resc := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(fctx context.Context) (any, error) {
			close(running)
			<-fctx.Done() // the flight context must be cancelled for us
			close(fnCtxDone)
			return nil, fctx.Err()
		})
		resc <- err
	}()
	<-running
	cancel() // sole caller leaves -> flight context cancels
	if err := <-resc; !errors.Is(err, context.Canceled) {
		t.Errorf("caller err = %v, want context.Canceled", err)
	}
	select {
	case <-fnCtxDone:
	case <-time.After(2 * time.Second):
		t.Fatal("flight context was not cancelled after the last caller left")
	}
	// The doomed flight must be unpublished: a fresh call runs fresh work.
	v, sh, err := g.Do(context.Background(), "k", func(context.Context) (any, error) { return "fresh", nil })
	if err != nil || sh || v != "fresh" {
		t.Errorf("post-cancel Do = (%v, shared=%v, %v), want fresh leader run", v, sh, err)
	}
}

func TestGroupOneCallerLeavingKeepsFlight(t *testing.T) {
	var g Group
	running := make(chan struct{})
	gate := make(chan struct{})
	var cancelled atomic.Bool
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()

	resB := make(chan any, 1)
	// Leader A starts the flight.
	errA := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctxA, "k", func(fctx context.Context) (any, error) {
			close(running)
			<-gate
			cancelled.Store(fctx.Err() != nil)
			return "done", nil
		})
		errA <- err
	}()
	<-running
	// Follower B joins.
	joinedB := make(chan struct{})
	go func() {
		close(joinedB)
		v, _, err := g.Do(context.Background(), "k", func(context.Context) (any, error) {
			t.Error("follower must not run fn")
			return nil, nil
		})
		if err != nil {
			t.Errorf("follower err: %v", err)
		}
		resB <- v
	}()
	<-joinedB
	time.Sleep(20 * time.Millisecond) // let B reach the wait
	cancelA()                         // A leaves; B still waits
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v", err)
	}
	close(gate)
	if v := <-resB; v != "done" {
		t.Errorf("follower value = %v", v)
	}
	if cancelled.Load() {
		t.Error("flight context cancelled while a caller still waited")
	}
}

func TestSchedulerBasics(t *testing.T) {
	s := NewScheduler(2, 1, 50*time.Millisecond, SchedulerMetrics{})
	if s.Workers() != 2 {
		t.Fatalf("workers = %d", s.Workers())
	}
	r1, err := s.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Pool full, queue empty: a third caller queues and times out.
	start := time.Now()
	if _, err := s.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Error("queued caller rejected before the wait budget elapsed")
	}
	r1()
	r3, err := s.Acquire(context.Background())
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	r2()
	r3()
}

func TestSchedulerQueueDepthRejectsImmediately(t *testing.T) {
	reg := obs.New()
	reg.SetEnabled(true)
	rejected := reg.Counter("rej", "")
	s := NewScheduler(1, 1, time.Minute, SchedulerMetrics{Rejected: rejected})
	release, err := s.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	// One caller occupies the single queue slot.
	queued := make(chan error, 1)
	ctxQ, cancelQ := context.WithCancel(context.Background())
	defer cancelQ()
	go func() {
		_, err := s.Acquire(ctxQ)
		queued <- err
	}()
	// Wait until the queued caller is counted.
	for i := 0; s.waiting.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	// The queue is full: the next caller is rejected without waiting.
	start := time.Now()
	if _, err := s.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("full-queue rejection should not wait for the budget")
	}
	if rejected.Value() != 1 {
		t.Errorf("rejected counter = %d", rejected.Value())
	}
	cancelQ()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Errorf("abandoned caller err = %v", err)
	}
}

func TestSchedulerRetryAfter(t *testing.T) {
	if got := NewScheduler(1, 0, 1500*time.Millisecond, SchedulerMetrics{}).RetryAfterSeconds(); got != 2 {
		t.Errorf("RetryAfterSeconds = %d, want 2 (round up)", got)
	}
	if got := NewScheduler(1, 0, time.Millisecond, SchedulerMetrics{}).RetryAfterSeconds(); got != 1 {
		t.Errorf("RetryAfterSeconds = %d, want the 1s floor", got)
	}
}

func TestSchedulerConcurrentChurn(t *testing.T) {
	s := NewScheduler(3, 64, time.Second, SchedulerMetrics{})
	var inFlight, maxSeen atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := s.Acquire(context.Background())
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			cur := inFlight.Add(1)
			for {
				m := maxSeen.Load()
				if cur <= m || maxSeen.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			release()
		}()
	}
	wg.Wait()
	if maxSeen.Load() > 3 {
		t.Errorf("saw %d concurrent holders, want <= 3", maxSeen.Load())
	}
}

func ExampleKey() {
	fmt.Println(Key("named", "2k", "0.25", "1") == Key("named", "2k", "0.25", "1"))
	// Output: true
}

// TestLRURemove: Remove withdraws an entry and its cost without counting an
// eviction, and reports a missing key.
func TestLRURemove(t *testing.T) {
	c := NewLRU(10)
	c.Add("a", 1, 4)
	c.Add("b", 2, 3)
	if !c.Remove("a") {
		t.Fatal("Remove(a) found nothing")
	}
	if _, ok := c.Peek("a"); ok || c.Cost() != 3 || c.Len() != 1 {
		t.Errorf("after Remove(a): present=%v cost=%d len=%d, want gone, 3, 1", ok, c.Cost(), c.Len())
	}
	if c.Remove("a") {
		t.Error("second Remove(a) reported an entry")
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Errorf("Remove counted %d evictions", st.Evictions)
	}
}
