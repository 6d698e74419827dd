package trace

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestNewIDsAreNonZeroAndDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		tid := NewTraceID()
		sid := NewSpanID()
		if tid.IsZero() || sid.IsZero() {
			t.Fatal("zero ID generated")
		}
		if seen[tid.String()] || seen[sid.String()] {
			t.Fatal("duplicate ID generated")
		}
		seen[tid.String()] = true
		seen[sid.String()] = true
	}
	if len(NewTraceID().String()) != 32 {
		t.Error("trace ID must render as 32 hex chars")
	}
	if len(NewSpanID().String()) != 16 {
		t.Error("span ID must render as 16 hex chars")
	}
}

func TestNewTraceFreshAndInherited(t *testing.T) {
	tr, root := New("job", nil)
	if tr.ID().IsZero() {
		t.Fatal("fresh trace has zero ID")
	}
	if root.Name() != "job" {
		t.Fatalf("root name = %q", root.Name())
	}

	parent := &Traceparent{TraceID: tr.ID(), SpanID: root.ID(), Flags: 0x01}
	child, childRoot := New("worker", parent)
	if child.ID() != tr.ID() {
		t.Error("inherited trace must keep the caller's trace ID")
	}
	if childRoot.parent != root.ID() {
		t.Error("inherited root must be parented to the caller's span")
	}
}

func TestSpanEndIdempotentAndRecorded(t *testing.T) {
	rec := NewRecorder(4)
	tr, root := New("job", nil)
	tr.SetRecorder(rec)
	root.End()
	root.End()
	if rec.Total() != 1 {
		t.Fatalf("recorder total = %d, want 1 (End must be idempotent)", rec.Total())
	}
}

func TestChildSpanEndDoesNotRecord(t *testing.T) {
	rec := NewRecorder(4)
	tr, root := New("job", nil)
	tr.SetRecorder(rec)
	root.StartChild("phase").End()
	if rec.Total() != 0 {
		t.Fatal("ending a child span must not complete the trace")
	}
	root.End()
	if rec.Total() != 1 {
		t.Fatal("ending the root span must complete the trace")
	}
}

func TestNilSpanOperationsAreNoOps(t *testing.T) {
	var sp *Span
	sp.End()
	sp.SetStage("run")
	sp.SetAttr("k", "v")
	if sp.StartChild("x") != nil {
		t.Error("StartChild on nil span must return nil")
	}
	if sp.Traceparent() != "" {
		t.Error("Traceparent on nil span must be empty")
	}
	if !sp.ID().IsZero() || sp.Name() != "" || sp.Trace() != nil {
		t.Error("nil span accessors must return zero values")
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if got, sp := StartChild(ctx, "x"); sp != nil || got != ctx {
		t.Fatal("StartChild without a trace must return (ctx, nil)")
	}
	_, root := New("job", nil)
	ctx = NewContext(ctx, root)
	if FromContext(ctx) != root {
		t.Fatal("FromContext must return the stored span")
	}
	ctx2, child := StartChild(ctx, "phase")
	if child == nil || FromContext(ctx2) != child {
		t.Fatal("StartChild must return a context carrying the child")
	}
	if child.parent != root.ID() {
		t.Fatal("context child must be parented to the context span")
	}
}

func TestSnapshotTreeAndStages(t *testing.T) {
	tr, root := New("job", nil)
	q := root.StartChild("queue.wait")
	q.SetStage("queue")
	time.Sleep(2 * time.Millisecond)
	q.End()

	run := root.StartChild("engine.beam")
	run.SetStage("run")
	// Shards nest under the staged run span: their time is part of "run",
	// not an addition to it.
	for i := 0; i < 3; i++ {
		sh := run.StartChild("engine.shard")
		time.Sleep(time.Millisecond)
		sh.End()
	}
	run.End()
	root.SetAttr("kind", "beam")
	root.End()

	snap := tr.Snapshot()
	if snap.TraceID != tr.ID().String() {
		t.Fatalf("snapshot trace ID = %q", snap.TraceID)
	}
	if snap.Root == nil || snap.Root.Name != "job" {
		t.Fatal("snapshot must root at the job span")
	}
	if len(snap.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(snap.Root.Children))
	}
	if snap.Root.Children[0].Name != "queue.wait" {
		t.Error("children must be ordered by start time")
	}
	var runNode *SpanSnapshot
	for _, c := range snap.Root.Children {
		if c.Name == "engine.beam" {
			runNode = c
		}
	}
	if runNode == nil || len(runNode.Children) != 3 {
		t.Fatal("run span must hold its three shard children")
	}

	stages := map[string]float64{}
	for _, st := range snap.Stages {
		stages[st.Stage] = st.Seconds
	}
	if len(stages) != 2 {
		t.Fatalf("stages = %v, want queue and run only", snap.Stages)
	}
	if stages["queue"] <= 0 || stages["run"] <= 0 {
		t.Fatalf("stage durations must be positive: %v", snap.Stages)
	}
	// The outermost-staged-span rule: run == the engine span's duration,
	// strictly at least the summed shard time but counted once.
	if stages["run"] < runNode.Children[0].DurationSeconds {
		t.Error("run stage must cover its shard children")
	}
	// Stage ordering is pipeline order.
	if snap.Stages[0].Stage != "queue" || snap.Stages[1].Stage != "run" {
		t.Errorf("stage order = %v, want queue before run", snap.Stages)
	}
}

func TestSnapshotInFlightSpans(t *testing.T) {
	tr, root := New("job", nil)
	root.StartChild("running")
	snap := tr.Snapshot()
	if len(snap.Root.Children) != 1 {
		t.Fatal("in-flight child must appear in the snapshot")
	}
	c := snap.Root.Children[0]
	if !c.InFlight || c.DurationSeconds < 0 {
		t.Errorf("in-flight span: InFlight=%v dur=%v", c.InFlight, c.DurationSeconds)
	}
	if (*Trace)(nil).Snapshot() != nil {
		t.Error("nil trace snapshot must be nil")
	}
}

func TestMaxSpansBound(t *testing.T) {
	tr, root := New("job", nil)
	for i := 0; i < maxSpans+10; i++ {
		root.StartChild("s").End()
	}
	snap := tr.Snapshot()
	if snap.Spans != maxSpans {
		t.Fatalf("spans = %d, want %d", snap.Spans, maxSpans)
	}
	if snap.Dropped != 11 {
		t.Fatalf("dropped = %d, want 11", snap.Dropped)
	}
}

func TestRecorderRingBound(t *testing.T) {
	rec := NewRecorder(3)
	var ids []string
	for i := 0; i < 5; i++ {
		tr, root := New("job", nil)
		tr.SetRecorder(rec)
		ids = append(ids, tr.ID().String())
		root.End()
	}
	if rec.Total() != 5 {
		t.Fatalf("total = %d, want 5", rec.Total())
	}
	recent := rec.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("recent = %d, want capacity 3", len(recent))
	}
	// Most recent first, oldest evicted.
	if recent[0].TraceID != ids[4] || recent[2].TraceID != ids[2] {
		t.Error("recent must return newest-first within capacity")
	}
	if got := rec.Recent(1); len(got) != 1 || got[0].TraceID != ids[4] {
		t.Error("Recent(1) must return only the newest trace")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tp := Traceparent{TraceID: NewTraceID(), SpanID: NewSpanID(), Flags: 0x01}
	parsed, err := ParseTraceparent(tp.String())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if parsed != tp {
		t.Fatalf("round trip mismatch: %+v != %+v", parsed, tp)
	}

	_, root := New("job", nil)
	hdr := root.Traceparent()
	if !strings.HasPrefix(hdr, "00-") {
		t.Fatalf("span traceparent %q must be version 00", hdr)
	}
	parsed, err = ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("parse span traceparent: %v", err)
	}
	if parsed.TraceID != root.Trace().ID() || parsed.SpanID != root.ID() {
		t.Error("span traceparent must carry the span's trace and span IDs")
	}
}

// malformedTraceparents are header values ParseTraceparent must reject.
var malformedTraceparents = []string{
	"",
	"00-abc",
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",       // 3 fields
	"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",    // forbidden version
	"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",    // uppercase
	"00-4bf92f3577b34da6a3ce929d0e0e473-00f067aa0ba902b7-01",     // short trace ID
	"00-00000000000000000000000000000000-00f067aa0ba902b7-01",    // zero trace ID
	"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",    // zero span ID
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-1",     // short flags
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-xx", // 5 fields
	"0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",    // bad version hex
	"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",    // bad trace hex
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	for _, s := range malformedTraceparents {
		if _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) must fail", s)
		}
	}
	if _, err := ParseTraceparent(" 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01 "); err != nil {
		t.Errorf("surrounding whitespace must be tolerated: %v", err)
	}
}

// FuzzParseTraceparent feeds arbitrary header values to the parser, which
// sits on a trust boundary: it must never panic, and any value it accepts
// must re-parse from its canonical String form to the same Traceparent.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add(" 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00 ")
	f.Add("cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-ff")
	for _, s := range malformedTraceparents {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tp, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		again, err := ParseTraceparent(tp.String())
		if err != nil {
			t.Fatalf("ParseTraceparent(%q) accepted, but its String %q is rejected: %v", s, tp.String(), err)
		}
		if again != tp {
			t.Fatalf("ParseTraceparent(%q) = %+v, but its String re-parses to %+v", s, tp, again)
		}
	})
}
