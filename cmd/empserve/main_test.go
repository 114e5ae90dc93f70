package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"emp/internal/jobs"
	"emp/internal/server"
)

// TestValidateFlags pins the startup contract: nonsensical serving flags are
// rejected (main exits with status 2) instead of being silently "fixed" into
// defaults mid-traffic; every sane configuration passes.
func TestValidateFlags(t *testing.T) {
	ok := func(workers, queueDep int, queueWait time.Duration, maxBody int64, maxTimeout, drainGrace time.Duration) error {
		return validateFlags(workers, queueDep, queueWait, maxBody, maxTimeout, drainGrace, 1, 1, 1, 1)
	}
	// retention varies the four cache and retention budgets of a sane
	// configuration.
	retention := func(dsCacheMB, resCacheMB, flightMB int64, flightN int) error {
		return validateFlags(0, 0, time.Second, 1, time.Second, 0, dsCacheMB, resCacheMB, flightMB, flightN)
	}
	valid := []struct {
		name string
		err  error
	}{
		{"defaults", validateFlags(0, 0, server.DefaultQueueWait, server.DefaultMaxBodyBytes, server.DefaultMaxSolveTimeout, 15*time.Second,
			server.DefaultDatasetCacheBytes>>20, server.DefaultResultCacheBytes>>20, server.DefaultFlightRecorderBytes>>20, server.DefaultFlightRecorderTraces)},
		{"no queue", ok(4, -1, time.Second, 1, time.Millisecond, 0)},
	}
	for _, tc := range valid {
		if tc.err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, tc.err)
		}
	}
	invalid := []struct {
		name string
		err  error
	}{
		{"negative workers", ok(-1, 0, time.Second, 1, time.Second, 0)},
		{"queue depth below -1", ok(0, -2, time.Second, 1, time.Second, 0)},
		{"zero queue wait", ok(0, 0, 0, 1, time.Second, 0)},
		{"negative queue wait", ok(0, 0, -time.Second, 1, time.Second, 0)},
		{"zero max body", ok(0, 0, time.Second, 0, time.Second, 0)},
		{"negative max body", ok(0, 0, time.Second, -1, time.Second, 0)},
		{"zero max timeout", ok(0, 0, time.Second, 1, 0, 0)},
		{"negative max timeout", ok(0, 0, time.Second, 1, -time.Second, 0)},
		{"negative drain grace", ok(0, 0, time.Second, 1, time.Second, -time.Second)},
		// No cache has a disabled setting, and 0 is not a quiet default.
		{"zero dataset cache", retention(0, 1, 1, 1)},
		{"negative dataset cache", retention(-1, 1, 1, 1)},
		// The result cache holds every answer, jobs' included.
		{"zero result cache", retention(1, 0, 1, 1)},
		{"negative result cache", retention(1, -1, 1, 1)},
		{"zero flight recorder budget", retention(1, 1, 0, 1)},
		{"negative flight recorder budget", retention(1, 1, -1, 1)},
		{"zero flight recorder traces", retention(1, 1, 1, 0)},
		{"negative flight recorder traces", retention(1, 1, 1, -1)},
	}
	for _, tc := range invalid {
		if tc.err == nil {
			t.Errorf("%s: accepted, want an error (exit 2 at startup)", tc.name)
		}
	}
}

// TestValidateJobFlags pins the same contract for the async job store flags.
func TestValidateJobFlags(t *testing.T) {
	if err := validateJobFlags(jobs.DefaultTTL, jobs.DefaultMaxActive); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	if err := validateJobFlags(time.Minute, 0); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
	for name, err := range map[string]error{
		"zero ttl":          validateJobFlags(0, 64),
		"negative ttl":      validateJobFlags(-time.Second, 64),
		"negative max jobs": validateJobFlags(time.Minute, -1),
	} {
		if err == nil {
			t.Errorf("%s: accepted, want an error (exit 2 at startup)", name)
		}
	}
}

// TestValidateDurableFlags pins the startup contract for the crash-safety
// flags: without -state-dir everything passes (persistence off); with it,
// intervals must be positive and the directory must actually accept writes —
// probed with a real file, not just a stat.
func TestValidateDurableFlags(t *testing.T) {
	if err := validateDurableFlags("", 0, 0); err != nil {
		t.Errorf("no state dir: intervals must be ignored, got %v", err)
	}
	dir := t.TempDir()
	if err := validateDurableFlags(dir, server.DefaultSnapshotInterval, server.DefaultCheckpointInterval); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	// A fresh subdirectory is created on demand.
	if err := validateDurableFlags(filepath.Join(dir, "new", "state"), time.Minute, time.Second); err != nil {
		t.Errorf("fresh nested dir rejected: %v", err)
	}
	for name, err := range map[string]error{
		"zero snapshot interval":       validateDurableFlags(dir, 0, time.Second),
		"negative snapshot interval":   validateDurableFlags(dir, -time.Minute, time.Second),
		"zero checkpoint interval":     validateDurableFlags(dir, time.Minute, 0),
		"negative checkpoint interval": validateDurableFlags(dir, time.Minute, -time.Second),
	} {
		if err == nil {
			t.Errorf("%s: accepted, want an error (exit 2 at startup)", name)
		}
	}
	// An unwritable state dir must be caught before the listener binds.
	if os.Getuid() != 0 { // root ignores mode bits; the probe would succeed
		ro := filepath.Join(dir, "readonly")
		if err := os.Mkdir(ro, 0o555); err != nil {
			t.Fatal(err)
		}
		if err := validateDurableFlags(ro, time.Minute, time.Second); err == nil {
			t.Error("read-only state dir accepted, want an error (exit 2 at startup)")
		}
	}
	// A state-dir path blocked by a regular file fails for everyone.
	block := filepath.Join(dir, "blocked")
	if err := os.WriteFile(block, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateDurableFlags(filepath.Join(block, "state"), time.Minute, time.Second); err == nil {
		t.Error("file-blocked state dir accepted, want an error (exit 2 at startup)")
	}
}
