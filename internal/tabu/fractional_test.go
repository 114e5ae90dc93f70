package tabu

import (
	"math/rand"
	"slices"
	"testing"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/geom"
	"emp/internal/region"
)

// fractionalGridPartition is randomGridPartition's instance with every
// dissimilarity value made fractional, v·1.37 + 0.01: the same regions on
// data whose heterogeneity arithmetic is not exact.
func fractionalGridPartition(t *testing.T, rng *rand.Rand) *region.Partition {
	t.Helper()
	ip := randomGridPartition(t, rng)
	if ip == nil {
		return nil
	}
	src := ip.Dataset()
	ds := data.FromPolygons("f", src.Polygons, geom.Rook)
	dis := make([]float64, src.N())
	for i, v := range src.Column("D") {
		dis[i] = v*1.37 + 0.01
	}
	if err := ds.AddColumn("D", dis); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "D"
	ev, err := constraint.NewEvaluator(constraint.Set{constraint.AtLeast(constraint.Count, "", 1)}, ds.Column)
	if err != nil {
		t.Fatal(err)
	}
	var members [][]int
	for _, id := range ip.RegionIDs() {
		members = append(members, ip.Region(id).Members)
	}
	p, err := region.PartitionFromRegions(ds, ev, members)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestImproveKernelDifferentialFractional is the kernel-against-fallback
// differential on fractional dissimilarities, where the searcher keeps
// re-summing H on improvements: the kernel searcher, the same searcher with
// naive deltas and the pre-kernel fallback make the same moves.
func TestImproveKernelDifferentialFractional(t *testing.T) {
	instances := 0
	for seed := int64(0); instances < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := fractionalGridPartition(t, rng)
		if p == nil {
			continue
		}
		if p.HeteroExact() {
			t.Fatalf("seed %d: fractional dissimilarities judged exact", seed)
		}
		instances++
		cfg := Config{Tenure: 1 + rng.Intn(5), MaxNoImprove: 10 + rng.Intn(30), RecordMoves: true}
		fast, slow, old := p.Clone(), p.Clone(), p.Clone()
		slow.SetHeteroKernel(false)
		old.SetHeteroKernel(false)
		fs := Improve(fast, cfg)
		ss := Improve(slow, cfg)
		os := improveFallback(old, cfg)
		if fs.Improvements != os.Improvements || ss.Improvements != os.Improvements {
			t.Fatalf("seed %d: improvements kernel %d, naive %d, fallback %d", seed, fs.Improvements, ss.Improvements, os.Improvements)
		}
		if !slices.Equal(fs.MoveLog, os.MoveLog) || !slices.Equal(ss.MoveLog, os.MoveLog) {
			t.Fatalf("seed %d: move logs differ\nkernel   %v\nnaive    %v\nfallback %v", seed, fs.MoveLog, ss.MoveLog, os.MoveLog)
		}
		for a := 0; a < p.Dataset().N(); a++ {
			if fast.Assignment(a) != old.Assignment(a) {
				t.Fatalf("seed %d: area %d ends in %d (kernel) and %d (fallback)", seed, a, fast.Assignment(a), old.Assignment(a))
			}
		}
		if err := fast.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
