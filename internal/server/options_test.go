package server

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"emp/internal/constraint"
	"emp/internal/fact"
)

func mustSet(t *testing.T, s string) constraint.Set {
	t.Helper()
	set, err := constraint.ParseSet(s)
	if err != nil {
		t.Fatalf("ParseSet(%q): %v", s, err)
	}
	return set
}

// optionExempt lists the fact.Config fields that deliberately have no wire
// form: in-process values a remote client cannot (or must not) supply.
var optionExempt = map[string]bool{
	"Objective": true, // function value: custom objectives are library-only
	"Pool":      true, // process-wide worker pool injected by the service
	"Prepared":  true, // prepared-dataset artifact attached by the service; result-neutral
	"WarmStart": true, // prior-partition seed injected by the async jobs layer, never client-supplied
}

// TestOptionsConfigRoundTrip pins the SolveOptions <-> fact.Config mapping
// with reflection: every solver knob must either round-trip through the wire
// struct or appear in the exemption list. Adding a field to fact.Config
// without mapping it here fails this test instead of silently dropping the
// knob from the HTTP layer and the cache fingerprint.
func TestOptionsConfigRoundTrip(t *testing.T) {
	// Every mapped field set to a distinctive non-zero value.
	cfg := fact.Config{
		MergeLimit:      5,
		Iterations:      7,
		TabuLength:      11,
		MaxNoImprove:    13,
		SkipLocalSearch: true,
		Order:           fact.OrderDescending,
		Seed:            99,
		CutShards:       4,
	}
	v := reflect.ValueOf(cfg)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if optionExempt[name] {
			continue
		}
		if v.Field(i).IsZero() {
			t.Errorf("fact.Config.%s is zero in the round-trip fixture: new knobs must be set here and mapped in SolveOptions (or exempted with a rationale)", name)
		}
	}

	back, err := OptionsFromConfig(cfg).Config()
	if err != nil {
		t.Fatalf("Config() on converted options: %v", err)
	}
	b := reflect.ValueOf(back)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if optionExempt[name] {
			continue
		}
		got, want := b.Field(i).Interface(), v.Field(i).Interface()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fact.Config.%s does not round-trip: %v -> %v", name, want, got)
		}
	}
}

// optionsValidation lists wire options Config must reject or accept; err
// is a substring the rejection must contain (the offending key), "" for
// options it must accept. FuzzSolveOptions seeds its corpus from it.
var optionsValidation = []struct {
	opts SolveOptions
	err  string
}{
	{SolveOptions{Order: "sideways"}, "order"},
	{SolveOptions{CutShards: 1}, "cut_shards"},
	{SolveOptions{CutShards: -3}, "cut_shards"},
	{SolveOptions{Iterations: -1}, "iterations"},
	{SolveOptions{MergeLimit: -1}, "merge_limit"},
	{SolveOptions{TabuLength: -3}, "tabu_length"},
	{SolveOptions{MaxNoImprove: -5}, "max_no_improve"},
	{SolveOptions{}, ""},
	{SolveOptions{Order: "random"}, ""},
	{SolveOptions{Order: "descending"}, ""},
	{SolveOptions{CutShards: 4}, ""},
	{SolveOptions{Iterations: 3, MergeLimit: 2, TabuLength: 7, MaxNoImprove: 50}, ""},
}

// TestOptionsConfigValidation rejects unknown enum spellings, negative
// counts and a one-way cut, naming the offending key.
func TestOptionsConfigValidation(t *testing.T) {
	for _, tc := range optionsValidation {
		_, err := tc.opts.Config()
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("valid options %+v rejected: %v", tc.opts, err)
		case tc.err != "" && err == nil:
			t.Errorf("options %+v accepted, want a %s error", tc.opts, tc.err)
		case tc.err != "" && !strings.Contains(err.Error(), tc.err):
			t.Errorf("options %+v: error %q does not name %s", tc.opts, err, tc.err)
		}
	}
}

// FuzzSolveOptions decodes arbitrary bytes as the wire options object. No
// input may panic, and any options Config accepts must carry non-negative
// counts and a cut_shards of 0 or at least 2, and must round-trip unchanged
// through OptionsFromConfig.
func FuzzSolveOptions(f *testing.F) {
	for _, tc := range optionsValidation {
		b, err := json.Marshal(tc.opts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"iterations":-1}`))
	f.Add([]byte(`{"seed":5,"shard_off":true}`))
	f.Add([]byte(`{"seed":5,"local_search":"anneal"}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var o SolveOptions
		if json.Unmarshal(b, &o) != nil {
			return
		}
		cfg, err := o.Config()
		if err != nil {
			return
		}
		if cfg.Iterations < 0 || cfg.MergeLimit < 0 || cfg.TabuLength < 0 || cfg.MaxNoImprove < 0 {
			t.Fatalf("%s: accepted a negative count: %+v", b, cfg)
		}
		if cfg.CutShards < 0 || cfg.CutShards == 1 {
			t.Fatalf("%s: accepted cut_shards %d", b, cfg.CutShards)
		}
		back, err := OptionsFromConfig(cfg).Config()
		if err != nil {
			t.Fatalf("%s: round trip rejected: %v", b, err)
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Fatalf("%s: round trip changed the config: %+v -> %+v", b, cfg, back)
		}
	})
}

// TestFingerprintKnobs checks the fingerprint policy: every wire knob splits
// the cache key, while the two spellings of a default share it.
func TestFingerprintKnobs(t *testing.T) {
	base := SolveOptions{Seed: 1}
	fp := func(o SolveOptions) string {
		req := &SolveRequest{Named: "1k", Options: o}
		set := mustSet(t, "SUM(TOTALPOP) >= 1")
		return solveFingerprint(req, set)
	}
	if fp(SolveOptions{Seed: 1, Order: "random"}) != fp(base) {
		t.Error("spelling out the default order changed the fingerprint")
	}
	// Result-affecting knobs: distinct keys.
	for name, o := range map[string]SolveOptions{
		"seed":        {Seed: 2},
		"iterations":  {Seed: 1, Iterations: 4},
		"order":       {Seed: 1, Order: "ascending"},
		"skip_search": {Seed: 1, SkipLocalSearch: true},
		"cut_shards":  {Seed: 1, CutShards: 4},
	} {
		if fp(o) == fp(base) {
			t.Errorf("%s did not change the fingerprint but changes the result", name)
		}
	}
}
