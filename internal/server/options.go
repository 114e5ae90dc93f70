package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"emp/internal/fact"
)

// SolveOptions mirrors the fact.Config knobs exposed over HTTP. It is the
// single wire representation of solver options: Config converts to the
// solver's native config and OptionsFromConfig converts back, and a
// round-trip test over fact.Config's fields keeps the two in sync — a new
// solver knob that is not mapped (or deliberately exempted) fails the test
// instead of silently missing the HTTP layer or the cache fingerprint.
type SolveOptions struct {
	Iterations      int    `json:"iterations,omitempty"`
	MergeLimit      int    `json:"merge_limit,omitempty"`
	TabuLength      int    `json:"tabu_length,omitempty"`
	MaxNoImprove    int    `json:"max_no_improve,omitempty"`
	SkipLocalSearch bool   `json:"skip_local_search,omitempty"`
	Order           string `json:"order,omitempty"` // "random" | "ascending" | "descending"
	Seed            int64  `json:"seed,omitempty"`
	CutShards       int    `json:"cut_shards,omitempty"`
}

// UnmarshalJSON decodes the options object strictly: a key that names no
// option fails the request instead of being dropped, so a misspelled or
// retired knob never silently yields a different solve than the client
// asked for. The error names the offending key.
func (o *SolveOptions) UnmarshalJSON(b []byte) error {
	type plain SolveOptions // no UnmarshalJSON method, so no recursion
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var p plain
	if err := dec.Decode(&p); err != nil {
		return fmt.Errorf("options: %w", err)
	}
	*o = SolveOptions(p)
	return nil
}

// Config converts the wire options to the solver config, validating the
// counts and the enum spellings. It is the only mapping between the two
// representations; handler code must not translate knobs field-by-field.
func (o SolveOptions) Config() (fact.Config, error) {
	for _, c := range []struct {
		key string
		v   int
	}{
		{"iterations", o.Iterations},
		{"merge_limit", o.MergeLimit},
		{"tabu_length", o.TabuLength},
		{"max_no_improve", o.MaxNoImprove},
	} {
		if c.v < 0 {
			return fact.Config{}, fmt.Errorf("%s must be >= 0 (0 means the default), got %d", c.key, c.v)
		}
	}
	cfg := fact.Config{
		Iterations:      o.Iterations,
		MergeLimit:      o.MergeLimit,
		TabuLength:      o.TabuLength,
		MaxNoImprove:    o.MaxNoImprove,
		SkipLocalSearch: o.SkipLocalSearch,
		Seed:            o.Seed,
		CutShards:       o.CutShards,
	}
	if o.CutShards < 0 || o.CutShards == 1 {
		return fact.Config{}, fmt.Errorf("cut_shards must be 0 (off) or >= 2, got %d", o.CutShards)
	}
	switch canonicalOrder(o.Order) {
	case "random":
		cfg.Order = fact.OrderRandom
	case "ascending":
		cfg.Order = fact.OrderAscending
	case "descending":
		cfg.Order = fact.OrderDescending
	default:
		return fact.Config{}, fmt.Errorf("unknown order %q", o.Order)
	}
	return cfg, nil
}

// OptionsFromConfig is the inverse of Config for the wire-representable
// knobs. Config fields without a wire form (Objective, Pool, Prepared,
// WarmStart — in-process values a remote client cannot supply) are dropped;
// the round-trip test lists them explicitly as exemptions.
func OptionsFromConfig(cfg fact.Config) SolveOptions {
	return SolveOptions{
		Iterations:      cfg.Iterations,
		MergeLimit:      cfg.MergeLimit,
		TabuLength:      cfg.TabuLength,
		MaxNoImprove:    cfg.MaxNoImprove,
		SkipLocalSearch: cfg.SkipLocalSearch,
		Order:           cfg.Order.String(),
		Seed:            cfg.Seed,
		CutShards:       cfg.CutShards,
	}
}

// canonicalOrder folds the two spellings of the default ("" and "random")
// so they share a fingerprint.
func canonicalOrder(order string) string {
	if order == "" {
		return "random"
	}
	return order
}

// fingerprintParts returns the option fields that go into the solve
// fingerprint: every wire knob, since each can change the result. The worker
// budget (fact.Config.Pool) has no wire form: results are identical for any
// pool size, so requests never split the cache on it. CutShards IS
// fingerprinted: the cut changes the search trajectory, so different shard
// counts produce different results.
func (o *SolveOptions) fingerprintParts() []string {
	return []string{
		strconv.Itoa(o.Iterations),
		strconv.Itoa(o.MergeLimit),
		strconv.Itoa(o.TabuLength),
		strconv.Itoa(o.MaxNoImprove),
		strconv.FormatBool(o.SkipLocalSearch),
		canonicalOrder(o.Order),
		strconv.FormatInt(o.Seed, 10),
		strconv.Itoa(o.CutShards),
	}
}
