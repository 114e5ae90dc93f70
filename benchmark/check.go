package main

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/region"
	"emp/internal/server"
)

// checked is the correctness verdict on one result, plus the upper bound on
// p that quality.p_bound_ratio divides by.
type checked struct {
	Err    error
	PBound float64
}

// checkResults rebuilds every returned partition on its dataset and verifies
// it (see checkPartition); a repeat must equal its original byte for byte in
// p, H and assignment. Datasets are regenerated once per (name, seed), on up
// to workers goroutines, one dataset in memory per worker.
func checkResults(results []result, workers int) []checked {
	out := make([]checked, len(results))
	groups := make(map[datasetKey][]int)
	var keys []datasetKey
	for i, r := range results {
		k := r.Op.datasetKey()
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], i)
	}
	work := make(chan datasetKey)
	var wg sync.WaitGroup
	for w := 0; w < max(1, workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				ds, err := census.NamedSeeded(k.name, k.seed)
				for _, i := range groups[k] {
					if err != nil {
						out[i].Err = fmt.Errorf("regenerating %s seed %d: %w", k.name, k.seed, err)
						continue
					}
					out[i] = checkOne(ds, results, i)
				}
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()
	return out
}

// checkOne verifies result i against its dataset.
func checkOne(ds *data.Dataset, results []result, i int) checked {
	r := results[i]
	c := checked{PBound: sumBound(ds, r.Op.SumLower)}
	switch {
	case r.Err != nil:
		c.Err = r.Err
	case r.Resp == nil:
		c.Err = fmt.Errorf("no response")
	case r.Op.RepeatOf >= 0:
		orig := results[r.Op.RepeatOf]
		if orig.Resp == nil {
			c.Err = fmt.Errorf("repeat of failed request %d", r.Op.RepeatOf)
		} else if r.Resp.P != orig.Resp.P || r.Resp.HeteroAfter != orig.Resp.HeteroAfter ||
			!slices.Equal(r.Resp.Assignment, orig.Resp.Assignment) {
			c.Err = fmt.Errorf("cached answer differs from request %d", r.Op.RepeatOf)
		}
	default:
		c.Err = checkPartition(ds, r.Op.Cons, r.Resp)
		isJob := r.Op.Class == classCold || r.Op.Class == classWarm
		switch {
		case c.Err != nil || !isJob:
		case r.DoneP != r.Resp.P || r.DoneH != r.Resp.HeteroAfter:
			c.Err = fmt.Errorf("done event p=%d h=%g but stored result p=%d h=%g", r.DoneP, r.DoneH, r.Resp.P, r.Resp.HeteroAfter)
		case (r.Op.Class == classWarm) != (r.WarmFrom != ""):
			c.Err = fmt.Errorf("%s job has warm_from %q", r.Op.Class, r.WarmFrom)
		}
	}
	return c
}

// checkPartition rebuilds the partition the response's assignment describes
// and checks that every region is contiguous and satisfies every constraint,
// that p and the unassigned count match, and that the reported H matches the
// recomputed one within 1e-6 relative.
func checkPartition(ds *data.Dataset, cons string, resp *server.SolveResponse) error {
	set, err := constraint.ParseSet(cons)
	if err != nil {
		return err
	}
	ev, err := constraint.NewEvaluator(set, ds.Column)
	if err != nil {
		return err
	}
	if len(resp.Assignment) != ds.N() {
		return fmt.Errorf("assignment has %d areas, dataset %d", len(resp.Assignment), ds.N())
	}
	regions := make([][]int, resp.P)
	unassigned := 0
	for a, label := range resp.Assignment {
		switch {
		case label == -1:
			unassigned++
		case label < 0 || label >= resp.P:
			return fmt.Errorf("area %d has label %d outside [0,%d)", a, label, resp.P)
		default:
			regions[label] = append(regions[label], a)
		}
	}
	p, err := region.PartitionFromRegions(ds, ev, regions)
	if err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if !p.AllSatisfied() {
		return fmt.Errorf("a region violates the constraints")
	}
	if p.NumRegions() != resp.P {
		return fmt.Errorf("rebuilt %d regions, response says p=%d", p.NumRegions(), resp.P)
	}
	if unassigned != resp.Unassigned {
		return fmt.Errorf("%d unassigned areas, response says %d", unassigned, resp.Unassigned)
	}
	if h := p.Heterogeneity(); math.Abs(h-resp.HeteroAfter) > 1e-6*math.Max(math.Abs(h), 1) {
		return fmt.Errorf("recomputed H=%g, response says %g", h, resp.HeteroAfter)
	}
	return nil
}

// sumBound is the upper bound on p that a SUM(TOTALPOP) >= lower constraint
// implies: no more regions than the total divided by the lower bound.
func sumBound(ds *data.Dataset, lower float64) float64 {
	var total float64
	for _, v := range ds.Column(census.AttrTotalPop) {
		total += v
	}
	return math.Floor(total / lower)
}
