package obs

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeChromeTrace unmarshals exported JSON into the generic shape a
// viewer would read.
func decodeChromeTrace(t *testing.T, tr *Trace) map[string]any {
	t.Helper()
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, sb.String())
	}
	return out
}

func traceEvents(t *testing.T, out map[string]any) []map[string]any {
	t.Helper()
	raw, ok := out["traceEvents"].([]any)
	if !ok {
		t.Fatalf("no traceEvents array in %v", out)
	}
	evs := make([]map[string]any, len(raw))
	for i, e := range raw {
		evs[i], ok = e.(map[string]any)
		if !ok {
			t.Fatalf("event %d is not an object: %v", i, e)
		}
	}
	return evs
}

func TestDisabledSpanIsNil(t *testing.T) {
	ctx := context.Background()
	sp := Start(ctx, "x")
	if sp != nil {
		t.Fatal("Start without a trace returned a non-nil span")
	}
	// All methods must be safe on nil.
	sp.Arg("k", 1).SetTID(3).End()
}

func TestDisabledSpanZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		sp := Start(ctx, "fuzz.round")
		sp.Arg("k", "v")
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled span path allocates %v times per op, want 0", allocs)
	}
}

func TestSpanRoundTrip(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	if TraceOf(ctx) != tr {
		t.Fatal("TraceOf lost the trace")
	}

	sp := Start(ctx, "kondo.fuzz", A("seed", 1))
	time.Sleep(2 * time.Millisecond)
	sp.Arg("evals", 42).End()
	Start(ctx, "fuzz.worker").SetTID(3).End()
	instant(tr, "fuzz.restart", 0)

	if tr.Len() != 3 {
		t.Fatalf("trace has %d events, want 3", tr.Len())
	}
	evs := traceEvents(t, decodeChromeTrace(t, tr))
	if len(evs) != 3 {
		t.Fatalf("exported %d events, want 3", len(evs))
	}
	// Events are sorted by start time; the first is the fuzz span.
	e := evs[0]
	if e["name"] != "kondo.fuzz" || e["ph"] != "X" || e["cat"] != "kondo" {
		t.Errorf("span event = %v", e)
	}
	if dur, ok := e["dur"].(float64); !ok || dur < 1000 { // ≥1ms in µs
		t.Errorf("span dur = %v, want >= 1000µs", e["dur"])
	}
	args, ok := e["args"].(map[string]any)
	if !ok || args["seed"] != float64(1) || args["evals"] != float64(42) {
		t.Errorf("span args = %v", e["args"])
	}
	if tid, ok := evs[1]["tid"].(float64); !ok || tid != 3 {
		t.Errorf("worker tid = %v, want 3", evs[1]["tid"])
	}
	inst := evs[2]
	if inst["ph"] != "i" || inst["s"] != "t" {
		t.Errorf("instant event = %v", inst)
	}
	if _, hasDur := inst["dur"]; hasDur {
		t.Error("instant event carries a dur")
	}
}

// TestTraceConcurrentEmission emits spans from many goroutines and
// verifies the export is well-formed — the tracing concurrency
// contract under -race.
func TestTraceConcurrentEmission(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := Start(ctx, "fuzz.worker").SetTID(w+1).Arg("i", i)
				sp.End()
			}
		}()
	}
	wg.Wait()
	if tr.Len() != workers*perWorker {
		t.Fatalf("trace has %d events, want %d", tr.Len(), workers*perWorker)
	}
	evs := traceEvents(t, decodeChromeTrace(t, tr))
	for _, e := range evs {
		if e["name"] != "fuzz.worker" || e["ph"] != "X" {
			t.Fatalf("malformed event %v", e)
		}
		if _, ok := e["dur"].(float64); !ok {
			t.Fatalf("span without dur: %v", e)
		}
	}
}

func TestTraceLimit(t *testing.T) {
	tr := NewTrace()
	tr.limit = 3
	ctx := WithTrace(context.Background(), tr)
	for i := 0; i < 10; i++ {
		Start(ctx, "x").End()
	}
	if tr.Len() != 3 {
		t.Errorf("retained %d events, want 3", tr.Len())
	}
	if tr.Dropped() != 7 {
		t.Errorf("dropped = %d, want 7", tr.Dropped())
	}
	out := decodeChromeTrace(t, tr)
	meta, ok := out["metadata"].(map[string]any)
	if !ok || meta["dropped_events"] != float64(7) {
		t.Errorf("metadata = %v, want dropped_events 7", out["metadata"])
	}
}

func TestWriteFile(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	Start(ctx, "a.b").End()
	path := t.TempDir() + "/trace.json"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("written trace does not parse: %v", err)
	}
}

func BenchmarkStartDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := Start(ctx, "x")
		sp.End()
	}
}

func BenchmarkStartEnabled(b *testing.B) {
	tr := NewTrace()
	tr.limit = 1024 // bound memory; drops still exercise the path
	ctx := WithTrace(context.Background(), tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := Start(ctx, "x")
		sp.End()
	}
}
