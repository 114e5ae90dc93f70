package flight

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"emp/internal/obs"
)

func TestRecorderCurve(t *testing.T) {
	r := NewRecorder(16)
	r.SetPhase(PhaseFeasibility)
	r.SetPhase(PhaseFeasibility) // repeat transitions record nothing
	r.SetPhase(PhaseConstruction)
	r.Improve(40, 900.5, 0, nil)
	r.SetPhase(PhaseSearch)
	r.Improve(40, 850.25, 10, nil)
	r.Finish(40, 850.25)

	curve := r.Curve()
	phases := make([]string, len(curve))
	for i, s := range curve {
		phases[i] = s.Phase
	}
	want := []string{"feasibility", "construction", "construction", "search", "search", "done"}
	if len(curve) != len(want) {
		t.Fatalf("curve phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("curve phases = %v, want %v", phases, want)
		}
	}
	final := curve[len(curve)-1]
	if final.P != 40 || final.H != 850.25 {
		t.Fatalf("final sample = %+v, want p=40 H=850.25", final)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].ElapsedNs < curve[i-1].ElapsedNs {
			t.Fatalf("curve not chronological at %d: %v", i, curve)
		}
	}
	phase, elapsed, p, h := r.Status()
	if phase != PhaseDone || p != 40 || h != 850.25 || elapsed <= 0 {
		t.Fatalf("status = %v %v %d %g", phase, elapsed, p, h)
	}
}

func TestRecorderRingOverflow(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Improve(50-i, float64(1000-i), i, nil)
	}
	curve := r.Curve()
	if len(curve) != 4 {
		t.Fatalf("curve length = %d, want ring cap 4", len(curve))
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	// The retained tail is the most recent samples, oldest first.
	if curve[0].Moves != 6 || curve[3].Moves != 9 {
		t.Fatalf("ring retained wrong tail: %+v", curve)
	}
}

// TestRecorderTap: the tap sees every sample, in order, and receives a
// builder only with the incumbents that offered one.
func TestRecorderTap(t *testing.T) {
	r := NewRecorder(0)
	var got []string
	r.SetTap(func(s Sample, assign func() []int) {
		got = append(got, fmt.Sprintf("%s/%d/%v", s.Phase, s.P, assign != nil))
	})
	r.SetPhase(PhaseConstruction)
	r.Improve(7, 10, 0, func() []int { return []int{0} })
	r.SetPhase(PhaseSearch)
	r.Improve(7, 9, 3, nil)
	r.Finish(7, 9)
	want := "[construction/0/false construction/7/true search/7/false search/7/false done/7/false]"
	if fmt.Sprint(got) != want {
		t.Fatalf("tap saw %v, want %s", got, want)
	}
}

func TestNilRecorderAndContext(t *testing.T) {
	var r *Recorder
	r.SetPhase(PhaseSearch)
	r.Improve(1, 2, 3, nil)
	r.Finish(1, 2)
	if got := r.Curve(); got != nil {
		t.Fatalf("nil recorder curve = %v", got)
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context yielded a recorder")
	}
	if FromContext(nil) != nil {
		t.Fatal("nil context yielded a recorder")
	}
	rec := NewRecorder(0)
	ctx := NewContext(context.Background(), rec)
	if FromContext(ctx) != rec {
		t.Fatal("context round trip lost the recorder")
	}
	if FromContext(NewContext(ctx, nil)) != nil {
		t.Fatal("a nil recorder did not mask the parent's")
	}
}

// spanEvent builds an identified span event as obs would emit it.
func spanEvent(trace obs.TraceID, span, parent string, name string, start, dur int64) obs.Event {
	return obs.Event{
		Kind: "span", Name: name,
		TraceID: trace.String(), SpanID: span, ParentID: parent,
		TimeUnixNano: start + dur, DurationNs: dur,
	}
}

func TestStoreLifecycle(t *testing.T) {
	st := NewStore(0, 0)
	trace := obs.NewTraceID()
	rec := st.Begin(trace, "3comp")
	rec.SetPhase(PhaseSearch)
	rec.Improve(12, 500, 4, nil)

	if rows := st.Inflight(); len(rows) != 1 ||
		rows[0].TraceID != trace.String() || rows[0].Dataset != "3comp" ||
		rows[0].Phase != "search" || rows[0].P != 12 {
		t.Fatalf("inflight = %+v", rows)
	}

	st.Emit(spanEvent(trace, "aaaaaaaaaaaaaaa1", "", "root", 100, 50))
	st.Emit(spanEvent(trace, "aaaaaaaaaaaaaaa2", "aaaaaaaaaaaaaaa1", "child", 110, 20))
	st.Emit(obs.Event{Kind: "counter", Name: "not-a-span"})
	st.Emit(spanEvent(obs.NewTraceID(), "bbbbbbbbbbbbbbb1", "", "foreign", 0, 1))

	rec.Finish(12, 480)
	st.Finish(trace)
	if rows := st.Inflight(); len(rows) != 0 {
		t.Fatalf("inflight after Finish = %+v", rows)
	}

	dump, ok := st.Trace(trace.String())
	if !ok {
		t.Fatal("finished trace not retained")
	}
	if dump.InFlight || dump.Dataset != "3comp" || len(dump.Spans) != 2 {
		t.Fatalf("dump = %+v", dump)
	}
	if len(dump.Tree) != 1 || dump.Tree[0].Name != "root" ||
		len(dump.Tree[0].Children) != 1 || dump.Tree[0].Children[0].Name != "child" {
		t.Fatalf("tree = %+v", dump.Tree)
	}
	final := dump.Curve[len(dump.Curve)-1]
	if final.Phase != "done" || final.P != 12 || final.H != 480 {
		t.Fatalf("final curve sample = %+v", final)
	}
	if _, ok := st.Trace("ffffffffffffffffffffffffffffffff"); ok {
		t.Fatal("unknown trace id found")
	}
	if _, ok := st.Trace("not-hex"); ok {
		t.Fatal("malformed trace id found")
	}
}

func TestStoreEvictsOldestFinished(t *testing.T) {
	st := NewStore(1<<20, 2) // keep at most 2 finished traces
	ids := make([]obs.TraceID, 4)
	for i := range ids {
		ids[i] = obs.NewTraceID()
		st.Begin(ids[i], fmt.Sprintf("ds%d", i))
		st.Finish(ids[i])
	}
	if _, ok := st.Trace(ids[0].String()); ok {
		t.Fatal("oldest finished trace survived past the cap")
	}
	for _, id := range ids[2:] {
		if _, ok := st.Trace(id.String()); !ok {
			t.Fatalf("recent trace %s evicted", id)
		}
	}
	stats := st.StoreStats()
	if stats.Retained != 2 || stats.Inflight != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestStoreInflightNeverEvicted(t *testing.T) {
	st := NewStore(1, 1) // absurdly tight budget
	live := obs.NewTraceID()
	st.Begin(live, "live")
	for i := 0; i < 5; i++ {
		id := obs.NewTraceID()
		st.Begin(id, "done")
		st.Finish(id)
	}
	rows := st.Inflight()
	if len(rows) != 1 || rows[0].TraceID != live.String() {
		t.Fatalf("in-flight solve evicted under budget pressure: %+v", rows)
	}
}

func TestWriteTreeRendering(t *testing.T) {
	trace := obs.NewTraceID()
	spans := []SpanRec{
		{Name: "http", TraceID: trace.String(), SpanID: "s1", StartUnixNano: 0, DurNs: 1_000_000_000},
		{Name: "solve", TraceID: trace.String(), SpanID: "s2", ParentID: "s1", StartUnixNano: 10, DurNs: 900_000_000},
		{Name: "feas", TraceID: trace.String(), SpanID: "s3", ParentID: "s2", StartUnixNano: 20, DurNs: 100_000_000},
		{Name: "search", TraceID: trace.String(), SpanID: "s4", ParentID: "s2", StartUnixNano: 30, DurNs: 700_000_000},
		{Name: "orphan", TraceID: trace.String(), SpanID: "s5", ParentID: "missing", StartUnixNano: 40, DurNs: 1},
	}
	roots := BuildTree(spans)
	if len(roots) != 2 { // http + the orphan
		t.Fatalf("got %d roots, want 2", len(roots))
	}
	var buf bytes.Buffer
	if err := WriteTree(&buf, roots); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"http  1s", "└─ solve", "├─ feas", "└─ search", "(90.0%)", "orphan"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
	// feas and search keep chronological order under solve.
	if strings.Index(out, "feas") > strings.Index(out, "search") {
		t.Errorf("children out of start order:\n%s", out)
	}
}

func TestParseJSONLRoundTrip(t *testing.T) {
	reg := obs.New()
	reg.SetEnabled(true)
	var buf bytes.Buffer
	reg.SetSink(obs.NewJSONLSink(&buf))

	root, ctx := reg.Histogram("emp_root", "h", nil).StartCtx(context.Background())
	child, _ := reg.Histogram("emp_child_duration", "h", nil).StartCtx(ctx)
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	reg.Emit(obs.Event{Kind: "solve", Name: "fact"}) // non-span noise
	buf.WriteString("not json at all\n")             // foreign line

	byTrace, order, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 {
		t.Fatalf("got %d traces, want 1: %v", len(order), order)
	}
	spans := byTrace[order[0]]
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	tree := BuildTree(spans)
	if len(tree) != 1 || tree[0].Name != "emp_root" ||
		len(tree[0].Children) != 1 || tree[0].Children[0].Name != "emp_child_duration" {
		t.Fatalf("reconstructed tree wrong: %+v", tree)
	}
	if tree[0].Children[0].DurNs < time.Millisecond.Nanoseconds() {
		t.Fatalf("child duration %d < 1ms", tree[0].Children[0].DurNs)
	}
}
