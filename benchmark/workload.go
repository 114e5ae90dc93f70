package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"emp/internal/server"
)

// Request classes. Each workload times two of them: its "solve" class feeds
// solve_p50_s and its "variant" class variant_p50_s.
const (
	classWhole = "whole" // sync solve on the whole graph
	classCut   = "cut"   // sync solve with cut_shards
	classMiss  = "miss"  // sync solve the result cache has not seen
	classHit   = "hit"   // exact repeat of an earlier miss
	classCold  = "cold"  // async job on a fresh dataset
	classWarm  = "warm"  // async job warm-started from the cold job before it
)

// op is one operation the client sends: a sync solve or an async job.
type op struct {
	Index      int
	Class      string
	Dataset    string
	Seed       int64 // options.seed: seeds both the dataset and the solver
	Cons       string
	SumLower   float64 // lower bound of SUM(TOTALPOP), for the upper bound on p
	CutShards  int
	SkipSearch bool // construction only (the mixed_sync warm-up)
	RepeatOf   int  // index of the op this one repeats exactly; -1 otherwise
	Anchor     bool // same body for every -seed: p_mean and h_mean come from these
	Body       []byte
}

// datasetKey names a generated dataset, like the server's dataset cache key.
type datasetKey struct {
	name string
	seed int64
}

func (o op) datasetKey() datasetKey { return datasetKey{o.Dataset, o.Seed} }

// workload is a fixed list of operations generated from a seed, plus the
// untimed warm-up that every server start runs.
type workload struct {
	Name         string
	Clients      int  // closed-loop clients
	Block        int  // operations per block; each block ends with its repeats (0: one block)
	Durable      bool // start empserve with -state-dir
	Jobs         bool // operations go through /v1/jobs
	SolveClass   string
	VariantClass string
	Warmup       []op
	Ops          []op
}

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"paper50k1", "mixed_sync", "jobs_durable"}

// Request volume per second of -seconds, calibrated so one run takes about
// -seconds on a 2-vCPU machine at the commit the benchmark was written for.
// The counts depend only on -seconds, so two commits always do identical
// work and a faster one simply finishes sooner.
const (
	paperOpsPerSecond = 0.45     // 50k1 solves: ~2.3 s whole, ~1.7 s cut
	mixedOpsPerSecond = 17.0     // 2k..20k solves from two clients, 25% hits
	jobPairSeconds    = 5.0      // cold 30k1 job with -state-dir plus its warm resubmit
	mixedRepeatShare  = 0.25     // share of mixed_sync requests that repeat an earlier one
	paperSum          = 100000.0 // SUM(TOTALPOP) lower bound on 50k1
	jobSum            = 50000.0  // cold job SUM(TOTALPOP) lower bound on 30k1
	jobWarmSum        = 55000.0  // warm resubmit bound: perturbed, so a new fingerprint
	paperCutShards    = 16       // cut_shards of the paper50k1 variant requests
	mixedWarmupSum    = 19000.0  // warm-up threshold outside the timed T grid
	mixedMinRepeatGap = 8        // a repeat trails its original by at least this many requests
	mixedRepeatWindow = 96       // ... and repeats one of the last this-many originals on its dataset
	mixedDatasetSeeds = 4        // dataset seeds per mixed_sync dataset: more average out their difficulty
	mixedBlock        = 32       // mixed_sync requests per block
	jobWarmupDataset  = "2k"     // small dataset for the jobs_durable warm-up job
)

// mixedDatasets are the mixed_sync datasets: one, two and three components.
var mixedDatasets = []string{"2k", "8k", "20k"}

// mixedFamilies are the mixed_sync constraint families, each a function of
// the threshold T; every one bounds SUM(TOTALPOP) from below.
var mixedFamilies = []struct {
	format   string
	sumScale float64 // SUM(TOTALPOP) lower bound as a multiple of T
}{
	{"MIN(POP16UP) <= 3000; AVG(EMPLOYED) in [1500,3500]; SUM(TOTALPOP) >= %g", 1},
	{"SUM(TOTALPOP) >= %g", 1},
	{"SUM(TOTALPOP) >= %g", 2.5},
	{"AVG(EMPLOYED) in [2000,4000]; SUM(TOTALPOP) >= %g", 1},
	{"MAX(EMPLOYED) <= 5000; SUM(TOTALPOP) in [%g,%g]", 1},
	{"COUNT(*) in [5,40]; SUM(TOTALPOP) >= %g", 1},
}

// mixedThresholds is the T grid: 20000, 20500, ..., 29500.
func mixedThresholds() []float64 {
	var ts []float64
	for t := 20000.0; t < 30000; t += 500 {
		ts = append(ts, t)
	}
	return ts
}

// familyConstraint renders family f at threshold t.
func familyConstraint(f int, t float64) (cons string, sumLower float64) {
	fam := mixedFamilies[f]
	lower := t * fam.sumScale
	if f == 4 {
		return fmt.Sprintf(fam.format, lower, 3*t), lower
	}
	return fmt.Sprintf(fam.format, lower), lower
}

// warmupSeed seeds the paper50k1 and jobs_durable warm-up, whose dataset the
// timed phase never uses. It is the same for every -seed, so setup_s varies
// with the machine, not with the difficulty of a random warm-up dataset.
const warmupSeed = 1

// Anchor requests have the same body for every -seed: their datasets are
// seeded with anchorSeed(i), and mixed_sync draws their thresholds from a
// fixed source. Their p and H therefore do not vary across seeds, and
// p_mean and h_mean, taken over them, can carry bounds of 0 and 0.1%. They
// are part of the timed phase like any other request.
const (
	anchorSeeds      = 8    // seeds 2 .. 2+anchorSeeds-1 are reserved for anchors
	anchorThresholds = 4242 // seeds the mixed_sync anchors' thresholds
)

func anchorSeed(i int) int64 { return 2 + int64(i) }

// seedSource hands out distinct request seeds. Seeds 0 and 1 are avoided
// (the server maps 0 to 1, and 1 is warmupSeed), and so are the anchors'.
type seedSource struct {
	rng  *rand.Rand
	used map[int64]bool
}

func (s *seedSource) next() int64 {
	for {
		v := anchorSeed(anchorSeeds) + s.rng.Int63n(1<<40)
		if !s.used[v] {
			s.used[v] = true
			return v
		}
	}
}

// buildWorkload generates the named workload from seed, sized for seconds.
func buildWorkload(name string, seed int64, seconds int) (*workload, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	rng := rand.New(rand.NewSource(seed))
	seeds := &seedSource{rng: rng, used: make(map[int64]bool)}
	var w *workload
	switch name {
	case "paper50k1":
		w = &workload{Name: name, Clients: 1, SolveClass: classWhole, VariantClass: classCut}
		w.Warmup = []op{{Class: classWhole, Dataset: "50k1", Seed: warmupSeed,
			Cons: fmt.Sprintf("SUM(TOTALPOP) >= %g", paperSum), SumLower: paperSum}}
		// The first pair is the anchor pair.
		pairs := max(1, int(math.Round(float64(seconds)*paperOpsPerSecond/2)))
		for i := 0; i < 2*pairs; i++ {
			o := op{Class: classWhole, Dataset: "50k1", Seed: anchorSeed(i), Anchor: i < 2,
				Cons: fmt.Sprintf("SUM(TOTALPOP) >= %g", paperSum), SumLower: paperSum}
			if !o.Anchor {
				o.Seed = seeds.next()
			}
			if i%2 == 1 {
				o.Class, o.CutShards = classCut, paperCutShards
			}
			w.Ops = append(w.Ops, o)
		}
	case "mixed_sync":
		w = &workload{Name: name, Clients: 2, Block: mixedBlock, SolveClass: classMiss, VariantClass: classHit}
		ops, warmup, err := mixedOps(rng, seeds, int(math.Round(float64(seconds)*mixedOpsPerSecond)))
		if err != nil {
			return nil, err
		}
		w.Ops, w.Warmup = ops, warmup
	case "jobs_durable":
		w = &workload{Name: name, Clients: 1, Durable: true, Jobs: true, SolveClass: classCold, VariantClass: classWarm}
		w.Warmup = []op{{Class: classCold, Dataset: jobWarmupDataset, Seed: warmupSeed,
			Cons: fmt.Sprintf("SUM(TOTALPOP) >= %g", jobSum), SumLower: jobSum}}
		// The first pair is the anchor pair.
		pairs := max(1, int(math.Round(float64(seconds)/jobPairSeconds)))
		for i := 0; i < pairs; i++ {
			s, anchor := anchorSeed(0), i == 0
			if !anchor {
				s = seeds.next()
			}
			w.Ops = append(w.Ops,
				op{Class: classCold, Dataset: "30k1", Seed: s, Anchor: anchor, Cons: fmt.Sprintf("SUM(TOTALPOP) >= %g", jobSum), SumLower: jobSum},
				op{Class: classWarm, Dataset: "30k1", Seed: s, Anchor: anchor, Cons: fmt.Sprintf("SUM(TOTALPOP) >= %g", jobWarmSum), SumLower: jobWarmSum})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
	}
	for _, list := range [][]op{w.Warmup, w.Ops} {
		for i := range list {
			list[i].Index = i
			if list[i].Class != classHit {
				list[i].RepeatOf = -1
			}
			if err := list[i].encode(); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// encode renders the operation's request body.
func (o *op) encode() error {
	body, err := json.Marshal(server.SolveRequest{
		Named:       o.Dataset,
		Constraints: o.Cons,
		Options:     server.SolveOptions{Seed: o.Seed, CutShards: o.CutShards, SkipLocalSearch: o.SkipSearch},
	})
	o.Body = body
	return err
}

// mixedOps generates n mixed_sync requests. The composition is the same for
// every seed, so that runs differ in their datasets and order, not in their
// mix: the originals are spread evenly over the (dataset, dataset seed,
// family) cells, each at distinct thresholds, and exactly
// round(n*mixedRepeatShare) positions repeat a recent original, evenly over
// the datasets, so that they are result-cache hits. The warm-up sends one
// construction-only request per (dataset, seed) at a threshold outside the
// grid, which fills the dataset cache with fingerprints that never recur.
// The first dataset seed of each dataset is an anchor seed, and the
// thresholds of the originals on it come from a fixed source, so those
// originals (a quarter of them) are the same for every seed.
func mixedOps(rng *rand.Rand, seeds *seedSource, n int) (ops, warmup []op, err error) {
	var keys []datasetKey // dataset-major
	anchorKey := make(map[datasetKey]bool)
	for d, name := range mixedDatasets {
		for i := 0; i < mixedDatasetSeeds; i++ {
			k := datasetKey{name, seeds.next()}
			if i == 0 {
				k.seed = anchorSeed(d)
				anchorKey[k] = true
			}
			keys = append(keys, k)
			warmup = append(warmup, op{Class: classMiss, Dataset: k.name, Seed: k.seed, SkipSearch: true,
				Cons: fmt.Sprintf("SUM(TOTALPOP) >= %g", mixedWarmupSum), SumLower: mixedWarmupSum})
		}
	}
	ts := mixedThresholds()
	repeats := int(math.Round(float64(n) * mixedRepeatShare))
	originals := n - repeats
	cells := len(keys) * len(mixedFamilies)
	if per := (originals + cells - 1) / cells; per > len(ts) {
		return nil, nil, fmt.Errorf("mixed_sync: %d requests per cell exceed the %d thresholds; lower -seconds", per, len(ts))
	}
	// Family-major cell order, so a remainder spreads over the datasets.
	anchorRng := rand.New(rand.NewSource(anchorThresholds))
	var orig []op
	for c := 0; c < cells; c++ {
		f, k := c/len(keys), keys[c%len(keys)]
		count := originals / cells
		if c < originals%cells {
			count++
		}
		pick := rng
		if anchorKey[k] {
			pick = anchorRng
		}
		for _, t := range pick.Perm(len(ts))[:count] {
			cons, lower := familyConstraint(f, ts[t])
			orig = append(orig, op{Class: classMiss, Dataset: k.name, Seed: k.seed, Cons: cons, SumLower: lower, Anchor: anchorKey[k]})
		}
	}
	rng.Shuffle(len(orig), func(i, j int) { orig[i], orig[j] = orig[j], orig[i] })

	// Repeats sit at random positions after the first few originals; each
	// takes a dataset from an evenly filled, shuffled list and repeats a
	// recent original on it.
	isRepeat := make([]bool, n)
	start := min(mixedRepeatWindow/2, n-repeats)
	for _, p := range rng.Perm(n - start)[:repeats] {
		isRepeat[p+start] = true
	}
	var repeatDataset []string
	for i := 0; i < repeats; i++ {
		repeatDataset = append(repeatDataset, mixedDatasets[i%len(mixedDatasets)])
	}
	rng.Shuffle(len(repeatDataset), func(i, j int) { repeatDataset[i], repeatDataset[j] = repeatDataset[j], repeatDataset[i] })
	var sent []int // indices of the originals placed so far
	for i := 0; i < n; i++ {
		if !isRepeat[i] {
			o := orig[len(sent)]
			o.Index = i
			ops = append(ops, o)
			sent = append(sent, i)
			continue
		}
		want := repeatDataset[0]
		repeatDataset = repeatDataset[1:]
		var eligible, anyDataset []int
		for j := len(sent) - 1; j >= 0 && len(eligible) < mixedRepeatWindow; j-- {
			if o := ops[sent[j]]; o.Index <= i-mixedMinRepeatGap {
				anyDataset = append(anyDataset, o.Index)
				if o.Dataset == want {
					eligible = append(eligible, o.Index)
				}
			}
		}
		if len(eligible) == 0 {
			// Only in runs too short for the window: take any dataset.
			eligible = anyDataset
		}
		if len(eligible) == 0 {
			return nil, nil, fmt.Errorf("mixed_sync: nothing to repeat at request %d; raise -seconds", i)
		}
		src := ops[eligible[rng.Intn(len(eligible))]]
		src.Class, src.RepeatOf, src.Index = classHit, src.Index, i
		ops = append(ops, src)
	}
	return ops, warmup, nil
}
