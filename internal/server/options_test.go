package server

import (
	"reflect"
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
		LocalSearch:     fact.LocalSearchAnneal,
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

// TestOptionsConfigValidation rejects unknown enum spellings.
func TestOptionsConfigValidation(t *testing.T) {
	if _, err := (SolveOptions{LocalSearch: "genetic"}).Config(); err == nil {
		t.Error("unknown local_search accepted")
	}
	if _, err := (SolveOptions{Order: "sideways"}).Config(); err == nil {
		t.Error("unknown order accepted")
	}
	if _, err := (SolveOptions{CutShards: 1}).Config(); err == nil {
		t.Error("cut_shards=1 accepted (must be 0 or >= 2)")
	}
	if _, err := (SolveOptions{CutShards: -3}).Config(); err == nil {
		t.Error("negative cut_shards accepted")
	}
	for _, o := range []SolveOptions{{}, {LocalSearch: "tabu", Order: "random"}, {LocalSearch: "anneal", Order: "descending"}, {CutShards: 4}} {
		if _, err := o.Config(); err != nil {
			t.Errorf("valid options %+v rejected: %v", o, err)
		}
	}
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
	if fp(SolveOptions{Seed: 1, LocalSearch: "tabu", Order: "random"}) != fp(base) {
		t.Error("spelling out the default local_search and order changed the fingerprint")
	}
	// Result-affecting knobs: distinct keys.
	for name, o := range map[string]SolveOptions{
		"seed":         {Seed: 2},
		"iterations":   {Seed: 1, Iterations: 4},
		"order":        {Seed: 1, Order: "ascending"},
		"local_search": {Seed: 1, LocalSearch: "anneal"},
		"skip_search":  {Seed: 1, SkipLocalSearch: true},
		"cut_shards":   {Seed: 1, CutShards: 4},
	} {
		if fp(o) == fp(base) {
			t.Errorf("%s did not change the fingerprint but changes the result", name)
		}
	}
}
