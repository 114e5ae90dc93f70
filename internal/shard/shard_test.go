package shard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"emp/internal/census"
	"emp/internal/data"
	"emp/internal/solvecache"
)

// twoComponents builds a 6-area dataset with components {0,1,2} (a path) and
// {3,4,5} (a triangle) and one attribute column.
func twoComponents(t *testing.T) *data.Dataset {
	t.Helper()
	ds, err := data.New("two", [][]int{{1}, {0, 2}, {1}, {4, 5}, {3, 5}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddColumn("POP", []float64{1, 2, 3, 40, 50, 60}); err != nil {
		t.Fatalf("AddColumn: %v", err)
	}
	ds.Dissimilarity = "POP"
	return ds
}

func TestNewPlanSplitsComponents(t *testing.T) {
	ds := twoComponents(t)
	p := NewPlan(ds)
	if len(p.Shards) != 2 {
		t.Fatalf("got %d shards, want 2", len(p.Shards))
	}
	wantGlobal := [][]int{{0, 1, 2}, {3, 4, 5}}
	for i, s := range p.Shards {
		if s.Component != i {
			t.Errorf("shard %d: component %d", i, s.Component)
		}
		if got := s.GlobalIDs; len(got) != 3 || got[0] != wantGlobal[i][0] || got[1] != wantGlobal[i][1] || got[2] != wantGlobal[i][2] {
			t.Errorf("shard %d: GlobalIDs %v, want %v", i, got, wantGlobal[i])
		}
		if s.Dataset.N() != 3 {
			t.Errorf("shard %d: dataset has %d areas", i, s.Dataset.N())
		}
		if s.Dataset.Components() != 1 {
			t.Errorf("shard %d: sub-dataset has %d components", i, s.Dataset.Components())
		}
		if s.Dataset.Dissimilarity != "POP" {
			t.Errorf("shard %d: dissimilarity column not inherited", i)
		}
	}
	// Both directions of the index map agree.
	for global, comp := range p.Component {
		local := p.Local[global]
		if got := p.Shards[comp].GlobalIDs[local]; got != global {
			t.Errorf("area %d: comp=%d local=%d maps back to %d", global, comp, local, got)
		}
	}
	// Shard 1's attribute column is remapped.
	if got := p.Shards[1].Dataset.Column("POP"); got[0] != 40 || got[2] != 60 {
		t.Errorf("shard 1 POP column = %v", got)
	}
}

func TestNewPlanCensusComponents(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "plan", Areas: 240, States: 3, Components: 3, Seed: 7})
	if err != nil {
		t.Fatalf("census: %v", err)
	}
	p := NewPlan(ds)
	if len(p.Shards) != ds.Components() {
		t.Fatalf("plan has %d shards, dataset has %d components", len(p.Shards), ds.Components())
	}
	total := 0
	for _, s := range p.Shards {
		total += s.Dataset.N()
		if err := s.Dataset.Validate(); err != nil {
			t.Errorf("shard %d invalid: %v", s.Component, err)
		}
	}
	if total != ds.N() {
		t.Fatalf("shards cover %d areas, dataset has %d", total, ds.N())
	}
}

func TestMergeRegions(t *testing.T) {
	ds := twoComponents(t)
	p := NewPlan(ds)
	merged := p.MergeRegions([][][]int{
		{{0, 1}, {2}},
		nil, // infeasible shard contributes nothing
	})
	want := [][]int{{0, 1}, {2}}
	if len(merged) != len(want) {
		t.Fatalf("merged %v, want %v", merged, want)
	}
	merged = p.MergeRegions([][][]int{
		{{2}, {0, 1}},
		{{1, 0, 2}},
	})
	// Shard 1's local ids 0..2 are global 3..5; shard order is preserved.
	want = [][]int{{2}, {0, 1}, {4, 3, 5}}
	for i := range want {
		if len(merged[i]) != len(want[i]) {
			t.Fatalf("region %d: %v, want %v", i, merged[i], want[i])
		}
		for j := range want[i] {
			if merged[i][j] != want[i][j] {
				t.Fatalf("region %d: %v, want %v", i, merged[i], want[i])
			}
		}
	}
}

// TestMergeRegionsLengthMismatchPanics pins the explicit length contract:
// fewer (or more) per-shard results than shards must panic instead of
// silently stranding the trailing shards' areas.
func TestMergeRegionsLengthMismatchPanics(t *testing.T) {
	ds := twoComponents(t)
	p := NewPlan(ds)
	for _, perShard := range [][][][]int{
		{{{0, 1, 2}}},         // one result for two shards
		{{{0}}, {{0}}, {{0}}}, // three results for two shards
		nil,                   // no results at all
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MergeRegions(%d results) did not panic", len(perShard))
				}
			}()
			p.MergeRegions(perShard)
		}()
	}
}

func TestRunExecutesAll(t *testing.T) {
	var done [8]atomic.Bool
	err := Run(context.Background(), len(done), solvecache.NewPool(3), func(i int) error {
		done[i].Store(true)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range done {
		if !done[i].Load() {
			t.Errorf("fn(%d) not executed", i)
		}
	}
}

func TestRunFirstErrorByIndex(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	// Index 1 fails fast, index 0 fails slow: the returned error must still
	// be index 0's, regardless of completion order.
	var release0 sync.WaitGroup
	release0.Add(1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- Run(context.Background(), 2, solvecache.NewPool(2), func(i int) error {
			if i == 0 {
				release0.Wait()
				return errA
			}
			return errB
		})
	}()
	release0.Done()
	if err := <-errCh; err != errA {
		t.Fatalf("Run returned %v, want first-by-index error %v", err, errA)
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var ran atomic.Int32
	errCh := make(chan error, 1)
	go func() {
		errCh <- Run(ctx, 4, solvecache.NewPool(1), func(i int) error {
			ran.Add(1)
			if i == 0 {
				close(started)
				<-ctx.Done()
			}
			return nil
		})
	}()
	<-started
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 4 {
		t.Fatalf("all %d tasks ran despite cancellation", n)
	}
}

// TestRunNilPool: a nil pool runs every call in index order on the calling
// goroutine (the unsynchronized append would race under -race otherwise).
func TestRunNilPool(t *testing.T) {
	var order []int
	if err := Run(context.Background(), 5, nil, func(i int) error { order = append(order, i); return nil }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 5 {
		t.Fatalf("ran %d, want 5", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("call order %v, want 0..4", order)
		}
	}
}
