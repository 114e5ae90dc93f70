package fact

import (
	"context"
	"sync"
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/flight"
)

// TestRecorderSeesWholeProblem: every sample the flight recorder takes, and
// every assignment builder it hands its tap, describes the whole problem —
// never a component or cut shard. So p never falls across the samples, the
// last sample is the answer, and every builder returns one label per area of
// the full dataset. The sharded and cut cases pin that sub-solves record
// nothing; the whole-graph case pins that its incumbents still offer their
// assignment.
func TestRecorderSeesWholeProblem(t *testing.T) {
	cases := []struct {
		name    string
		dataset string
		scale   float64
		cfg     Config
		comps   int  // components the scaled dataset must have
		offers  bool // some incumbent must carry a builder
	}{
		{"sharded_20k", "20k", 0.25, Config{Seed: 7}, 3, false},
		{"cut4_2k", "2k", 0.5, Config{Seed: 7, CutShards: 4}, 1, true},
		{"whole_2k", "2k", 0.5, Config{Seed: 7}, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := census.Scaled(tc.dataset, tc.scale, 7)
			if err != nil {
				t.Fatal(err)
			}
			if ds.Components() != tc.comps {
				t.Fatalf("%s at scale %g has %d components, want %d", tc.dataset, tc.scale, ds.Components(), tc.comps)
			}
			set := constraint.Set{constraint.AtLeast(constraint.Sum, census.AttrTotalPop, 25000)}
			rec := flight.NewRecorder()
			var mu sync.Mutex
			var samples []flight.Sample
			builders := 0
			rec.SetTap(func(s flight.Sample, assign func() []int) {
				mu.Lock()
				defer mu.Unlock()
				samples = append(samples, s)
				if assign == nil {
					return
				}
				builders++
				labels := assign()
				if len(labels) != ds.N() {
					t.Errorf("sample %d: builder returned %d labels, want %d", len(samples)-1, len(labels), ds.N())
					return
				}
				for a, l := range labels {
					if l < -1 || l >= s.P {
						t.Errorf("sample %d: area %d has label %d, want one in [-1, %d)", len(samples)-1, a, l, s.P)
						return
					}
				}
			})
			res, err := SolveCtx(flight.NewContext(context.Background(), rec), ds, set, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(samples) == 0 {
				t.Fatal("the recorder took no samples")
			}
			for i := 1; i < len(samples); i++ {
				if samples[i].P < samples[i-1].P {
					t.Fatalf("p fell from %d to %d at sample %d (%s)", samples[i-1].P, samples[i].P, i, samples[i].Phase)
				}
			}
			t.Logf("%d areas: %d samples, %d builders, p=%d", ds.N(), len(samples), builders, res.P)
			last := samples[len(samples)-1]
			if last.P != res.P || last.H != res.HeteroAfter {
				t.Errorf("last sample (p=%d, H=%g), want the result's (p=%d, H=%g)", last.P, last.H, res.P, res.HeteroAfter)
			}
			if tc.offers && builders == 0 {
				t.Error("no incumbent offered its assignment")
			}
		})
	}
}
