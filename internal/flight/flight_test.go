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
	r := NewRecorder()
	r.SetPhase(PhaseFeasibility)
	r.SetPhase(PhaseFeasibility) // repeat transitions record nothing
	r.SetPhase(PhaseConstruction)
	r.Improve(40, 900.5, 0, nil)
	r.SetPhase(PhaseSearch)
	r.Improve(40, 850.25, 10, nil)
	r.Finish(40, 850.25)

	curve, _ := r.Log(0)
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

// clockedRecorder returns a recorder on a test clock, and the setter that
// moves that clock to ms milliseconds after the recorder's start.
func clockedRecorder() (*Recorder, func(ms float64)) {
	t0 := time.Unix(1_700_000_000, 0)
	at := t0
	r := NewRecorder()
	r.t0, r.now = t0, func() time.Time { return at }
	return r, func(ms float64) { at = t0.Add(time.Duration(ms * float64(time.Millisecond))) }
}

// TestRecorderRetention pins the log's retention rule on a test clock: phase
// transitions and p changes are always logged; an H-only incumbent is logged
// once max(10 ms, elapsed/100) has passed since the last logged entry, and
// held otherwise; the held incumbent is superseded by the next logged one,
// and flushed before a phase sample and at Finish. The tap sees every
// sample.
func TestRecorderRetention(t *testing.T) {
	r, at := clockedRecorder()
	taps := 0
	r.SetTap(func(Sample, func() []int) { taps++ })
	steps := []struct {
		ms    float64
		phase Phase // 0: an Improve with p, h
		p     int
		h     float64
	}{
		{0, PhaseConstruction, 0, 0},
		{5, 0, 10, 100},         // p changes: logged
		{6, PhaseSearch, 0, 0},  // phase: logged
		{8, 0, 10, 90},          // 2 ms after the last entry: held
		{12, 0, 10, 80},         // held, replacing H=90
		{17, 0, 10, 70},         // 11 ms: logged, H=80 dropped
		{20, 0, 10, 65},         // held
		{21, 0, 11, 64},         // p changes: logged, H=65 dropped
		{22, 0, 11, 60},         // held
		{23, PhaseShards, 0, 0}, // flushes H=60, then logs the phase
		{2000, 0, 11, 50},       // logged
		{2015, 0, 11, 49},       // 15 ms < 2015/100 ms: held
		{2021, 0, 11, 48},       // 21 ms >= 20.21 ms: logged
		{2025, 0, 11, 47},       // held until Finish
	}
	for _, st := range steps {
		at(st.ms)
		if st.phase != 0 {
			r.SetPhase(st.phase)
		} else {
			r.Improve(st.p, st.h, int(st.ms), nil)
		}
	}
	if _, _, p, h := r.Status(); p != 11 || h != 47 {
		t.Fatalf("status incumbent = (%d, %g), want the held (11, 47)", p, h)
	}
	_, grew := r.Log(r.Len())
	at(2030)
	r.Finish(11, 47)
	select {
	case <-grew:
	default:
		t.Fatal("Finish did not wake a reader waiting in Log")
	}
	var got []string
	curve, _ := r.Log(0)
	for _, s := range curve {
		got = append(got, fmt.Sprintf("%d/%s/%d/%g", s.ElapsedNs/int64(time.Millisecond), s.Phase, s.P, s.H))
	}
	want := []string{
		"0/construction/0/0", "5/construction/10/100", "6/search/10/100",
		"17/search/10/70", "21/search/11/64", "22/search/11/60", "23/shards/11/60",
		"2000/shards/11/50", "2021/shards/11/48", "2025/shards/11/47", "2030/done/11/47",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("log = %v\nwant  %v", got, want)
	}
	if taps != len(steps)+1 {
		t.Fatalf("tap saw %d samples, want every one of %d", taps, len(steps)+1)
	}
}

// TestRecorderLongSearchLogSize: a search improving H every millisecond for
// five minutes (the server's longest timeout) logs about 670 entries, not
// 300,000.
func TestRecorderLongSearchLogSize(t *testing.T) {
	r, at := clockedRecorder()
	r.SetPhase(PhaseSearch)
	for ms := 1; ms <= 300_000; ms++ {
		at(float64(ms))
		r.Improve(5, float64(1e6-ms), ms, nil)
	}
	r.Finish(5, 1e6-300_000)
	n := r.Len()
	if n < 600 || n > 700 {
		t.Fatalf("five-minute search logged %d entries, want about 670", n)
	}
	t.Logf("five-minute search: %d entries", n)
	if last, _ := r.Log(n - 1); last[0].Phase != "done" || last[0].H != 1e6-300_000 {
		t.Fatalf("log ends on %+v, want the final incumbent", last[0])
	}
}

// TestRecorderFlush: Flush logs a held incumbent, returns the log's end, and
// wakes readers even when nothing was held.
func TestRecorderFlush(t *testing.T) {
	r, at := clockedRecorder()
	r.Improve(3, 30, 1, nil)
	at(1)
	r.Improve(3, 29, 2, nil) // held
	if r.Len() != 1 {
		t.Fatalf("len = %d, want the held incumbent kept out of the log", r.Len())
	}
	if n, last := r.Flush(); n != 2 || last.H != 29 || last.Moves != 2 {
		t.Fatalf("Flush = %d, %+v; want 2 entries ending on H=29", n, last)
	}
	_, grew := r.Log(2)
	if n, _ := r.Flush(); n != 2 {
		t.Fatalf("second Flush = %d, want 2", n)
	}
	select {
	case <-grew:
	default:
		t.Fatal("Flush with nothing held did not wake a reader")
	}
	if evs, _ := r.Log(5); len(evs) != 0 || evs == nil {
		t.Fatalf("Log past the end = %#v, want an empty slice", evs)
	}
}

// TestRecorderTap: the tap sees every sample, in order, and receives a
// builder only with the incumbents that offered one.
func TestRecorderTap(t *testing.T) {
	r := NewRecorder()
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
	if got, grew := r.Log(0); got != nil || grew != nil {
		t.Fatalf("nil recorder log = %v, %v", got, grew)
	}
	if n, _ := r.Flush(); n != 0 || r.Len() != 0 {
		t.Fatalf("nil recorder flush = %d, len = %d", n, r.Len())
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context yielded a recorder")
	}
	if FromContext(nil) != nil {
		t.Fatal("nil context yielded a recorder")
	}
	rec := NewRecorder()
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
	rec := NewRecorder()
	st.Begin(trace, "3comp", rec)
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
	st.Finish(trace, rec)
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
		rec := NewRecorder()
		st.Begin(ids[i], fmt.Sprintf("ds%d", i), rec)
		st.Finish(ids[i], rec)
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
	st.Begin(live, "live", NewRecorder())
	for i := 0; i < 5; i++ {
		id := obs.NewTraceID()
		rec := NewRecorder()
		st.Begin(id, "done", rec)
		st.Finish(id, rec)
	}
	rows := st.Inflight()
	if len(rows) != 1 || rows[0].TraceID != live.String() {
		t.Fatalf("in-flight solve evicted under budget pressure: %+v", rows)
	}
}

// TestStoreSharedTraceID: two solves in flight at once under one trace id
// (a traced client fanning out) keep the first solve's entry. The second
// Begin does not displace it, and the second solve's Finish does not retire
// it, so the first solve's curve and budget charge stay its own.
func TestStoreSharedTraceID(t *testing.T) {
	st := NewStore(0, 0)
	trace := obs.NewTraceID()
	first, second := NewRecorder(), NewRecorder()
	st.Begin(trace, "first", first)
	st.Begin(trace, "second", second)
	first.Improve(7, 70, 0, nil)
	second.Improve(9, 90, 0, nil)
	if rows := st.Inflight(); len(rows) != 1 || rows[0].Dataset != "first" || rows[0].P != 7 {
		t.Fatalf("inflight = %+v, want the first solve's row", rows)
	}
	second.Finish(9, 90)
	st.Finish(trace, second)
	if rows := st.Inflight(); len(rows) != 1 || rows[0].Dataset != "first" {
		t.Fatalf("the second solve's Finish retired the first's entry: inflight = %+v", rows)
	}
	if dump, _ := st.Trace(trace.String()); !dump.InFlight {
		t.Fatal("the first solve's dump reads finished while it runs")
	}
	first.Finish(7, 65)
	st.Finish(trace, first)
	dump, ok := st.Trace(trace.String())
	if !ok || dump.InFlight || dump.Dataset != "first" {
		t.Fatalf("dump = %+v, want the first solve, finished", dump)
	}
	if final := dump.Curve[len(dump.Curve)-1]; final.P != 7 || final.H != 65 {
		t.Fatalf("final curve sample = %+v, want the first solve's (7, 65)", final)
	}
	if stats := st.StoreStats(); stats.Retained != 1 || stats.Inflight != 0 || stats.UsedBytes != int64(first.Len())*32+160 {
		t.Fatalf("stats = %+v, want one retained entry charged %d bytes", stats, first.Len()*32+160)
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
