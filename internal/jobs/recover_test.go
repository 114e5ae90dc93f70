package jobs

import (
	"sync"
	"testing"
	"time"

	"emp/internal/durable"
)

func TestSubmitRecoveredPreservesID(t *testing.T) {
	s, _ := newTestStore(t, Config{MaxActive: 1})
	// Fill the active set: recovered jobs must still be admitted.
	if _, _, err := s.Submit("fp-live", "dk", "grid"); err != nil {
		t.Fatal(err)
	}
	j, err := s.SubmitRecovered("abcd1234abcd1234", "fp-rec", "dk", "grid")
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "abcd1234abcd1234" || j.Snapshot().State != StateQueued {
		t.Fatalf("recovered job = %s %v", j.ID(), j.Snapshot().State)
	}
	got, ok := s.Get("abcd1234abcd1234")
	if !ok || got != j {
		t.Fatal("recovered job not fetchable by its original id")
	}
	if s.Active() != 2 {
		t.Fatalf("active = %d, want 2", s.Active())
	}
	// Same id or same fingerprint again: rejected, first wins.
	if _, err := s.SubmitRecovered("abcd1234abcd1234", "fp-other", "dk", "grid"); err != ErrJobExists {
		t.Fatalf("id collision err = %v", err)
	}
	if _, err := s.SubmitRecovered("ffff0000ffff0000", "fp-live", "dk", "grid"); err != ErrJobExists {
		t.Fatalf("fingerprint collision err = %v", err)
	}
}

func TestOnTransitionHookObservesLifecycle(t *testing.T) {
	var mu sync.Mutex
	var got []string
	s, _ := newTestStore(t, Config{OnTransition: func(j *Job, st State) {
		mu.Lock()
		got = append(got, j.ID()+":"+st.String())
		mu.Unlock()
	}})
	j, _, err := s.Submit("fp", "dk", "grid")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(j)
	s.Finish(j, "fp", 2, 1.5)
	j2, _, _ := s.Submit("fp2", "dk", "grid")
	s.Fail(j2, 500, "boom")
	j3, _, _ := s.Submit("fp3", "dk", "grid")
	s.Cancel(j3.ID())
	// Born-terminal jobs (cache hits) are not reported.
	s.SubmitDone("fp4", "dk", "grid", "fp4", 1, 0)

	want := []string{
		j.ID() + ":running", j.ID() + ":done",
		j2.ID() + ":failed", j3.ID() + ":canceled",
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", got, want)
		}
	}
}

func TestWarmSeedsRestoreRoundTrip(t *testing.T) {
	s, _ := newTestStore(t, Config{})
	j, _, _ := s.Submit("fp", "dk", "grid")
	s.Start(j)
	s.Finish(j, "fp", 2, 3.5)

	exp := s.WarmSeeds()
	if len(exp) != 1 {
		t.Fatalf("exported %d seeds", len(exp))
	}
	e := exp[0]
	if e.DatasetKey != "dk" || e.Dataset != "grid" || e.JobID != j.ID() || e.Fingerprint != "fp" || e.ResultKey != "fp" || e.P != 2 || e.H != 3.5 {
		t.Fatalf("export = %+v", e)
	}

	// Restore into a fresh store: the seed is servable under the old job id,
	// and the job reads as it did before: label, state, (p, H), answer key.
	s2, _ := newTestStore(t, Config{})
	if !s2.RestoreWarmSeed(e) {
		t.Fatal("restore rejected")
	}
	key, id, ok := s2.WarmSeed("dk", "other-fp")
	if !ok || id != j.ID() || key != "fp" {
		t.Fatalf("restored seed = %q %s %v", key, id, ok)
	}
	rj, ok := s2.Get(j.ID())
	if !ok {
		t.Fatal("restored job not fetchable by its id")
	}
	if snap := rj.Snapshot(); snap.Dataset != "grid" || snap.State != StateDone || snap.P != 2 || snap.H != 3.5 || snap.ResultKey != "fp" {
		t.Fatalf("restored job = %+v", snap)
	}
	// Same-fingerprint submissions still refuse to self-seed.
	if _, _, ok := s2.WarmSeed("dk", "fp"); ok {
		t.Fatal("self-seed not excluded after restore")
	}
	// Re-export round-trips the incumbent.
	exp2 := s2.WarmSeeds()
	if len(exp2) != 1 || exp2[0].P != 2 || exp2[0].H != 3.5 {
		t.Fatalf("re-export = %+v", exp2)
	}
	// First wins: a second restore for the same key is a no-op.
	if s2.RestoreWarmSeed(durable.WarmSeedEntry{DatasetKey: "dk", JobID: "zz", Fingerprint: "z", ResultKey: "z"}) {
		t.Fatal("duplicate-key restore accepted")
	}
	// An entry that names no answer restores nothing.
	if s2.RestoreWarmSeed(durable.WarmSeedEntry{DatasetKey: "dk2", JobID: "yy", Fingerprint: "y", P: 1}) {
		t.Fatal("restored a seed with no answer key")
	}
}

func TestBackgroundSweeperReclaims(t *testing.T) {
	// Real clock: the sweeper's ticker and the TTL cutoff must agree.
	s := NewStore(Config{TTL: 30 * time.Millisecond, SweepInterval: 10 * time.Millisecond})
	defer s.Close()
	j, _, err := s.Submit("fp", "dk", "grid")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(j)
	s.Finish(j, "fp", 1, 0)
	if st := s.StoreStats(); st.Retained != 1 {
		t.Fatalf("retained = %d before TTL", st.Retained)
	}
	// No Get/Submit traffic at all: only the sweeper can reclaim.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st := s.StoreStats(); st.Retained == 0 && st.UsedBytes == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweeper never reclaimed: %+v", s.StoreStats())
}
