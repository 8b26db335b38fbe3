package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// newTraceAt returns an empty trace whose timestamps are relative to
// epoch, so a test controls the offset Merge has to undo.
func newTraceAt(epoch time.Time) *Trace {
	tr := NewTrace()
	tr.epoch = epoch
	return tr
}

// instant records a zero-duration marker on lane tid, the event a
// merged peer's instant becomes.
func instant(tr *Trace, name string, tid int, args ...Arg) {
	tr.add(event{name: name, ph: 'i', start: time.Now(), tid: int64(tid), args: args})
}

// eventsNamed filters exported chrome events by name.
func eventsNamed(evs []map[string]any, name string) []map[string]any {
	var out []map[string]any
	for _, e := range evs {
		if e["name"] == name {
			out = append(out, e)
		}
	}
	return out
}

func TestExportMergeRoundTrip(t *testing.T) {
	epoch := time.Now()
	tr := newTraceAt(epoch)
	ctx := WithTrace(context.Background(), tr)

	sp := Start(ctx, "fuzz.round", A("seeds", 3)).SetTID(2)
	time.Sleep(time.Millisecond)
	sp.End()
	instant(tr, "fuzz.marker", 5, A("k", "v"))

	wt := tr.Export(0)
	if wt.Omitted != 0 || wt.ProcessName != "" {
		t.Fatalf("export header = %+v, want nothing omitted and no lane name", wt)
	}
	if len(wt.Events) != 2 {
		t.Fatalf("exported %d events, want 2", len(wt.Events))
	}
	span := wt.Events[0]
	if span.Name != "fuzz.round" || span.Ph != "" || span.TID != 2 {
		t.Errorf("span wire form = %+v", span)
	}
	if span.Dur <= 0 {
		t.Errorf("span duration %d, want > 0", span.Dur)
	}
	if span.TS < 0 {
		t.Errorf("span TS %d is before the epoch", span.TS)
	}
	if got := span.Args["seeds"]; got != 3 {
		t.Errorf("span args = %v", span.Args)
	}
	inst := wt.Events[1]
	if inst.Ph != "i" || inst.TID != 5 || inst.Dur != 0 {
		t.Errorf("instant wire form = %+v", inst)
	}

	// A trace on the same epoch merges it back onto its own lane with
	// zero offset: the Chrome timestamps match the source's exactly.
	dst := newTraceAt(epoch)
	dst.Merge(LocalPID, wt)
	if dst.Len() != 2 {
		t.Fatalf("merged trace has %d events, want 2", dst.Len())
	}
	src := eventsNamed(traceEvents(t, decodeChromeTrace(t, tr)), "fuzz.round")
	got := eventsNamed(traceEvents(t, decodeChromeTrace(t, dst)), "fuzz.round")
	if len(got) != 1 || len(src) != 1 {
		t.Fatalf("fuzz.round events = %d merged, %d source; want 1 each", len(got), len(src))
	}
	if got[0]["pid"].(float64) != LocalPID {
		t.Errorf("merged event pid = %v, want LocalPID", got[0]["pid"])
	}
	if got[0]["tid"].(float64) != 2 {
		t.Errorf("merged event tid = %v, want 2", got[0]["tid"])
	}
	if got[0]["ts"] != src[0]["ts"] || got[0]["dur"] != src[0]["dur"] {
		t.Errorf("merged ts/dur = %v/%v, want the source's %v/%v", got[0]["ts"], got[0]["dur"], src[0]["ts"], src[0]["dur"])
	}
}

func TestExportEventsBounded(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < 10; i++ {
		instant(tr, "m", 0)
	}
	if wt := tr.Export(4); len(wt.Events) != 4 || wt.Omitted != 6 {
		t.Fatalf("Export(4) = %d events, %d omitted; want 4, 6", len(wt.Events), wt.Omitted)
	}
	if wt := tr.Export(100); len(wt.Events) != 10 || wt.Omitted != 0 {
		t.Fatalf("Export(100) = %d events, %d omitted; want 10, 0", len(wt.Events), wt.Omitted)
	}
}

// TestExportWireNilAndBounds checks the wire form at its edges: a nil
// trace exports nothing and ignores a merge, and a bounded export of a
// named lane keeps the lane name while counting what it left out.
func TestExportWireNilAndBounds(t *testing.T) {
	var nilTrace *Trace
	wt := nilTrace.Export(0)
	if wt.ProcessName != "" || len(wt.Events) != 0 {
		t.Fatalf("nil export: %+v", wt)
	}
	nilTrace.Merge(2, wt) // must not panic

	tr := NewTrace()
	tr.SetProcessName(LocalPID, "svc")
	ctx := WithTrace(context.Background(), tr)
	for i := 0; i < 5; i++ {
		Start(ctx, "s").End()
	}
	wt = tr.Export(3)
	if wt.ProcessName != "svc" || len(wt.Events) != 3 || wt.Omitted != 2 {
		t.Fatalf("bounded export: name=%q events=%d omitted=%d", wt.ProcessName, len(wt.Events), wt.Omitted)
	}
}

func TestExportMergeNilTrace(t *testing.T) {
	var tr *Trace
	wt := tr.Export(10)
	if wt.Events != nil || wt.Omitted != 0 || wt.ProcessName != "" || wt.EpochUnixNS != 0 {
		t.Fatalf("nil trace export = %+v", wt)
	}
	tr.Merge(2, WireTrace{ProcessName: "w", Events: []WireEvent{{Name: "x"}}}) // must not panic
}

func TestMergeRebasesOntoLocalEpoch(t *testing.T) {
	epoch := time.Now()
	tr := newTraceAt(epoch)

	// A remote span that started 5ms past the remote epoch, whose epoch
	// sits 2ms after the local one: it must land at 7ms on the local
	// timeline.
	tr.Merge(3, WireTrace{
		ProcessName: "kondo-serve",
		EpochUnixNS: epoch.Add(2 * time.Millisecond).UnixNano(),
		Events: []WireEvent{
			{Name: "serve.chunk", TS: int64(5 * time.Millisecond), Dur: int64(time.Millisecond), TID: 1},
			{Name: "serve.evict", Ph: "i", TS: int64(6 * time.Millisecond)},
			{Name: "future.phase", Ph: "q", TS: 0}, // unknown phase: skipped, not fatal
		},
	})

	if tr.Len() != 2 {
		t.Fatalf("merged %d events, want 2 (unknown phase dropped)", tr.Len())
	}
	evs := traceEvents(t, decodeChromeTrace(t, tr))

	meta := eventsNamed(evs, "process_name")
	if len(meta) != 1 {
		t.Fatalf("process_name metadata events = %d, want 1", len(meta))
	}
	if meta[0]["ph"] != "M" || meta[0]["pid"].(float64) != 3 {
		t.Errorf("metadata event = %v", meta[0])
	}
	if name := meta[0]["args"].(map[string]any)["name"]; name != "kondo-serve" {
		t.Errorf("process name = %v, want kondo-serve", name)
	}

	span := eventsNamed(evs, "serve.chunk")
	if len(span) != 1 {
		t.Fatalf("merged span missing: %v", evs)
	}
	if span[0]["pid"].(float64) != 3 {
		t.Errorf("merged span pid = %v, want 3", span[0]["pid"])
	}
	wantTS := float64(7 * time.Millisecond / time.Microsecond)
	if ts := span[0]["ts"].(float64); ts < wantTS-1 || ts > wantTS+1 {
		t.Errorf("rebased ts = %v µs, want ~%v", ts, wantTS)
	}
	if dur := *jsonFloat(t, span[0], "dur"); dur != 1000 {
		t.Errorf("merged dur = %v µs, want 1000", dur)
	}

	inst := eventsNamed(evs, "serve.evict")
	if len(inst) != 1 || inst[0]["ph"] != "i" {
		t.Fatalf("merged instant = %v", inst)
	}
}

// jsonFloat pulls a numeric field that may be absent.
func jsonFloat(t *testing.T, e map[string]any, key string) *float64 {
	t.Helper()
	v, ok := e[key]
	if !ok {
		t.Fatalf("event %v has no %q", e, key)
	}
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("event field %q = %v is not a number", key, v)
	}
	return &f
}

func TestMergeArgsDeterministic(t *testing.T) {
	tr := NewTrace()
	tr.Merge(2, WireTrace{Events: []WireEvent{
		{Name: "x", Args: map[string]any{"b": 2, "a": 1, "c": 3}},
	}})
	tr.mu.Lock()
	args := tr.events[0].args
	tr.mu.Unlock()
	if len(args) != 3 || args[0].Key != "a" || args[1].Key != "b" || args[2].Key != "c" {
		t.Fatalf("merged args not key-sorted: %v", args)
	}
}

func TestMergeRespectsLimit(t *testing.T) {
	tr := NewTrace()
	tr.limit = 3
	events := make([]WireEvent, 5)
	for i := range events {
		events[i] = WireEvent{Name: "e", TS: int64(i)}
	}
	tr.Merge(2, WireTrace{ProcessName: "w", Events: events})
	if tr.Len() != 3 {
		t.Errorf("retained %d events, want 3", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", tr.Dropped())
	}
}

// TestExportMergeStitches is the /tracez round trip: a server trace
// exported under its lane name, through JSON, merged into a client
// trace whose epoch differs, re-based by the epoch delta.
func TestExportMergeStitches(t *testing.T) {
	base := time.Now()

	// "Server" trace: its epoch lags the client's by 5ms of wall clock.
	server := newTraceAt(base.Add(5 * time.Millisecond))
	server.SetProcessName(LocalPID, "kondo-serve")
	sctx := WithTrace(context.Background(), server)
	sp := Start(sctx, "serve.chunk", A("chunk", 7))
	sp.End()
	instant(server, "serve.evict", 0)

	wt := server.Export(0)
	if wt.ProcessName != "kondo-serve" {
		t.Fatalf("ProcessName = %q, want the LocalPID lane name", wt.ProcessName)
	}
	if wt.EpochUnixNS != server.epoch.UnixNano() {
		t.Fatalf("EpochUnixNS = %d want %d", wt.EpochUnixNS, server.epoch.UnixNano())
	}
	if len(wt.Events) != 2 {
		t.Fatalf("exported %d events, want 2", len(wt.Events))
	}
	// The server epoch sits ~5ms in the future of the span's actual
	// start, so the exported epoch-relative TS is negative — exactly
	// what Merge's epoch-delta offset must undo.
	if wt.Events[0].TS > -4*int64(time.Millisecond) {
		t.Fatalf("exported TS = %dns, want <= -4ms (epoch in the future)", wt.Events[0].TS)
	}

	// Round-trip through JSON as the /tracez endpoint would.
	raw, err := json.Marshal(wt)
	if err != nil {
		t.Fatal(err)
	}
	var back WireTrace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}

	// "Client" trace merges it under pid 2.
	client := newTraceAt(base)
	cctx := WithTrace(context.Background(), client)
	Start(cctx, "dataserve.fetch").End()
	client.Merge(2, back)

	if got := client.Len(); got != 3 {
		t.Fatalf("merged trace has %d events, want 3", got)
	}
	pids := client.PIDs()
	if len(pids) != 2 || pids[0] != LocalPID || pids[1] != 2 {
		t.Fatalf("PIDs = %v, want [1 2]", pids)
	}

	// The merged export re-bases the remote events by the epoch delta
	// and labels the lane.
	var buf bytes.Buffer
	if err := client.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TS   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	foundName, foundServe := false, false
	for _, e := range out.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" && e.PID == 2 {
			foundName = true
			if e.Args["name"] != "kondo-serve" {
				t.Fatalf("lane label = %v", e.Args["name"])
			}
		}
		if e.Name == "serve.chunk" {
			foundServe = true
			if e.PID != 2 {
				t.Fatalf("serve.chunk on pid %d, want 2", e.PID)
			}
			// The epoch-delta offset cancels the negative raw TS: the
			// merged timestamp is the span's true wall time relative to
			// the client epoch — near zero, not -5ms.
			if e.TS < 0 || e.TS > 4000 {
				t.Fatalf("serve.chunk ts = %vus, want re-based into [0, 4ms)", e.TS)
			}
		}
	}
	if !foundName || !foundServe {
		t.Fatalf("missing merged lane (name=%v serve=%v)", foundName, foundServe)
	}
}

// TestMergedInstantKeepsLane: a peer's instants render on the lane
// they were recorded on, not collapsed onto tid 0.
func TestMergedInstantKeepsLane(t *testing.T) {
	tr := NewTrace()
	tr.Merge(2, WireTrace{
		ProcessName: "kondo-serve",
		EpochUnixNS: tr.epoch.UnixNano(),
		Events: []WireEvent{
			{Name: "serve.evict", Ph: "i", TID: 7},
			{Name: "plain", Ph: "i"},
		},
	})

	evs := traceEvents(t, decodeChromeTrace(t, tr))
	laned := eventsNamed(evs, "serve.evict")
	if len(laned) != 1 || laned[0]["tid"].(float64) != 7 || laned[0]["ph"] != "i" {
		t.Fatalf("laned instant = %v, want an instant on tid 7", laned)
	}
	plain := eventsNamed(evs, "plain")
	if len(plain) != 1 || plain[0]["tid"].(float64) != 0 {
		t.Fatalf("plain instant = %v, want tid 0", plain)
	}
}

// TestRegisterTraceMetrics: attaching a trace to the endpoint set
// exposes its drop accounting as kondo_trace_dropped_events.
func TestRegisterTraceMetrics(t *testing.T) {
	tr := NewTrace()
	tr.limit = 1
	reg := NewRegistry()
	ep := NewEndpoints(reg)
	ep.SetTrace(nil) // no trace: nothing registered, no panic
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "kondo_trace_dropped_events") {
		t.Fatalf("dropped gauge registered without a trace:\n%s", sb.String())
	}

	ep.SetTrace(tr)
	for _, name := range []string{"a", "b", "c"} {
		instant(tr, name, 0)
	}

	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "kondo_trace_dropped_events 2") {
		t.Errorf("exposition missing dropped gauge:\n%s", sb.String())
	}
}

func TestSetProcessNameOrdering(t *testing.T) {
	tr := NewTrace()
	tr.SetProcessName(3, "kondo-serve:b")
	tr.SetProcessName(1, "kondo-load")
	tr.SetProcessName(2, "kondo-serve:a")
	instant(tr, "x", 0)

	evs := traceEvents(t, decodeChromeTrace(t, tr))
	meta := eventsNamed(evs, "process_name")
	if len(meta) != 3 {
		t.Fatalf("metadata events = %d, want 3", len(meta))
	}
	for i, want := range []float64{1, 2, 3} {
		if meta[i]["pid"].(float64) != want {
			t.Errorf("metadata %d pid = %v, want %v", i, meta[i]["pid"], want)
		}
	}
	// Metadata must precede timed events.
	if evs[0]["ph"] != "M" {
		t.Errorf("first event is %v, want metadata", evs[0])
	}
}
