package region

import (
	"slices"
	"strings"
	"testing"
)

// TestValidateRejectsEachViolation corrupts a valid partition in each way
// Validate guards against, one violation per case, and expects Validate to
// name it.
func TestValidateRejectsEachViolation(t *testing.T) {
	// The 4x3 lattice of testPartition, ids row-major:
	//
	//	0  1  2  3
	//	4  5  6  7
	//	8  9 10 11
	//
	// left holds the two left columns, right the two right ones except 11,
	// which stays unassigned.
	build := func(t *testing.T) (p *Partition, left, right *Region) {
		t.Helper()
		p, _ = testPartition(t, defaultSet())
		left = p.NewRegion(0, 1, 4, 5, 8, 9)
		right = p.NewRegion(2, 3, 6, 7, 10)
		if err := p.Validate(); err != nil {
			t.Fatalf("base partition: %v", err)
		}
		return p, left, right
	}
	for _, tc := range []struct {
		name    string
		corrupt func(p *Partition, left, right *Region)
		want    string
	}{
		{"area in two regions", func(p *Partition, left, right *Region) {
			right.Members = append(right.Members, 5)
		}, "in regions"},
		{"assignment disagrees with members", func(p *Partition, left, right *Region) {
			p.assign[0] = right.ID
		}, "but in region"},
		{"empty region", func(p *Partition, left, right *Region) {
			p.NewRegion()
		}, "is empty"},
		{"discontiguous region", func(p *Partition, left, right *Region) {
			p.MoveArea(4, right.ID) // 4 touches no member of right
		}, "not contiguous"},
		{"stale tracker", func(p *Partition, left, right *Region) {
			left.Tracker.Add(3)
		}, "tracker"},
		{"stale heterogeneity", func(p *Partition, left, right *Region) {
			left.Hetero++
		}, "heterogeneity"},
		{"wrong region count", func(p *Partition, left, right *Region) {
			p.numRegions++
		}, "counter says"},
		{"assigned area missing from its region", func(p *Partition, left, right *Region) {
			p.assign[11] = right.ID
		}, "not a member"},
		{"area listed twice in one region", func(p *Partition, left, right *Region) {
			left.Members = append(left.Members, 9)
		}, "in regions"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, left, right := build(t)
			before := slices.Clone(left.Members)
			tc.corrupt(p, left, right)
			err := p.Validate()
			if err == nil {
				t.Fatalf("Validate accepted the partition (left %v → %v)", before, left.Members)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %q, want an error about %q", err, tc.want)
			}
		})
	}
}
