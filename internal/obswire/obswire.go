// Package obswire binds every solver package's telemetry to one obs
// registry. It exists so the obs core stays dependency-free: obs cannot
// import the solver packages, and each solver package only knows its own
// counters, so the fan-out lives here and is shared by cmd/empserve,
// cmd/empbench and the tests.
package obswire

import (
	"emp/internal/fact"
	"emp/internal/maxp"
	"emp/internal/obs"
	"emp/internal/region"
	"emp/internal/tabu"
)

// Enable binds the fact, tabu, region and maxp telemetry to the
// registry; Enable(nil) unbinds everything, restoring the zero-cost absent
// state. Like the per-package SetMetrics calls it forwards to, it must run
// during startup wiring, before solves begin.
func Enable(r *obs.Registry) {
	fact.SetMetrics(r)
	tabu.SetMetrics(r)
	region.SetMetrics(r)
	maxp.SetMetrics(r)
}

// Fanout is a Sink broadcasting every event to a fixed set of sinks in
// order. The sink list is immutable after construction, so Emit needs no
// lock of its own — concurrency safety reduces to that of the fanned-out
// sinks (which the Sink contract already requires). The server uses it to
// feed the flight-recorder store next to an operator-installed JSONL sink.
type Fanout struct {
	sinks []obs.Sink
}

// NewFanout builds a fan-out over the non-nil sinks. With zero or one
// effective sink it still works; callers that want to avoid the extra
// indirection can special-case len==1 themselves.
func NewFanout(sinks ...obs.Sink) *Fanout {
	kept := make([]obs.Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	return &Fanout{sinks: kept}
}

// Emit forwards the event to every sink.
func (f *Fanout) Emit(e obs.Event) {
	for _, s := range f.sinks {
		s.Emit(e)
	}
}
