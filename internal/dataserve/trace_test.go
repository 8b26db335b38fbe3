package dataserve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/obs"
)

// TestBackoffDelayJittered pins the thundering-herd fix: successive
// backoff delays for the same attempt are randomized (full jitter),
// not a constant, and never exceed the capped exponential ceiling.
func TestBackoffDelayJittered(t *testing.T) {
	f := NewFetcherConfig("http://127.0.0.1:1", nil, FetcherConfig{})
	const samples = 64
	seen := make(map[time.Duration]bool)
	for i := 0; i < samples; i++ {
		d := f.backoffDelay(1)
		if d < 0 || d > 50*time.Millisecond {
			t.Fatalf("try-1 delay %v outside [0, base]", d)
		}
		seen[d] = true
	}
	// With full jitter over 5e7 ns, 64 identical draws means the jitter
	// is gone (collision probability is astronomically small).
	if len(seen) < 2 {
		t.Fatalf("delays are constant: %v", seen)
	}
	// The ceiling grows exponentially, then caps at retryMax.
	for i := 0; i < samples; i++ {
		if d := f.backoffDelay(3); d > 200*time.Millisecond {
			t.Fatalf("try-3 delay %v above 4x base ceiling", d)
		}
		if d := f.backoffDelay(20); d > 2*time.Second {
			t.Fatalf("try-20 delay %v above the retryMax cap", d)
		}
		// Very deep retries must not overflow the shifted ceiling.
		if d := f.backoffDelay(200); d < 0 || d > 2*time.Second {
			t.Fatalf("try-200 delay %v escaped the cap (overflow?)", d)
		}
	}
}

// TestHealthzDrain pins the drain window on kondo-serve's mux:
// /healthz answers 200 while serving, 503 once draining begins, and
// 200 again if drain is cancelled, while the data endpoints keep
// serving throughout.
func TestHealthzDrain(t *testing.T) {
	space := array.MustSpace(16, 16)
	_, ep, ts := startDaemon(t, space, []int{8, 8})

	get := func() int {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(); got != http.StatusOK {
		t.Fatalf("healthz before drain = %d", got)
	}
	ep.SetDraining(true)
	if got := get(); got != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", got)
	}
	// Data endpoints keep serving through the drain window — only the
	// balancer signal flips.
	resp, err := http.Get(ts.URL + "/meta?dataset=data")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("meta during drain = %d, want 200", resp.StatusCode)
	}
	ep.SetDraining(false)
	if got := get(); got != http.StatusOK {
		t.Fatalf("healthz after undrain = %d", got)
	}
}

// TestTracePropagationStitches drives a traced fetch through a traced
// server and asserts the full wire-propagation chain: the client
// stamps headers, the server opens a child span carrying the same
// trace id and the client's span id as parent, and merging the
// server's /tracez export into the client trace yields a 2-pid trace.
func TestTracePropagationStitches(t *testing.T) {
	space := array.MustSpace(16, 16)
	srv, ep, ts := startDaemon(t, space, []int{8, 8})

	serverTr := obs.NewTrace()
	serverTr.SetProcessName(obs.LocalPID, "kondo-serve")
	srv.EnableTracing(serverTr)
	ep.SetTrace(serverTr)

	clientTr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), clientTr)
	f := NewFetcherConfig(ts.URL, nil, FetcherConfig{})
	v, err := f.FetchContext(ctx, "data", array.Index{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := originValue(space, array.Index{3, 4}); v != want {
		t.Fatalf("value = %v, want %v", v, want)
	}
	if got := f.tracePropagated.Load(); got == 0 {
		t.Fatal("no outgoing request was stamped with a trace context")
	}
	if got := srv.traceRequests.Load(); got == 0 {
		t.Fatal("server saw no propagated trace context")
	}

	// Pull the server's export over /tracez and stitch.
	resp, err := http.Get(ts.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tracez status = %d", resp.StatusCode)
	}
	var wt obs.WireTrace
	if err := json.NewDecoder(resp.Body).Decode(&wt); err != nil {
		t.Fatal(err)
	}
	if wt.ProcessName != "kondo-serve" {
		t.Fatalf("tracez lane = %q", wt.ProcessName)
	}
	if len(wt.Events) == 0 {
		t.Fatal("tracez exported no events")
	}

	// The ids must join up: client fetch span and server serve span
	// share a trace id, and the server's parent is the client's span.
	cevs := clientTr.Export(0).Events
	var clientTID, clientSID string
	for _, e := range cevs {
		if e.Name == "dataserve.fetch" {
			clientTID, _ = e.Args["trace_id"].(string)
			clientSID, _ = e.Args["span_id"].(string)
		}
	}
	if clientTID == "" || clientSID == "" {
		t.Fatalf("client fetch span carries no ids: %+v", cevs)
	}
	joined := false
	for _, e := range wt.Events {
		if e.Args["trace_id"] == clientTID && e.Args["parent_span_id"] == clientSID {
			joined = true
		}
	}
	if !joined {
		t.Fatalf("no server span joins trace %s / parent %s: %+v", clientTID, clientSID, wt.Events)
	}

	clientTr.Merge(2, wt)
	if pids := clientTr.PIDs(); len(pids) < 2 {
		t.Fatalf("stitched trace has pids %v, want >= 2 lanes", pids)
	}
}

// TestTracezDisabled pins the 404-until-configured contract on
// kondo-serve's mux, and that the data plane alone does not serve it.
func TestTracezDisabled(t *testing.T) {
	space := array.MustSpace(8, 8)
	_, _, daemon := startDaemon(t, space, []int{4, 4})
	_, bare := startServer(t, space, []int{4, 4})
	for _, ts := range []*httptest.Server{daemon, bare} {
		resp, err := http.Get(ts.URL + "/tracez")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("/tracez without config = %d, want 404", resp.StatusCode)
		}
	}
}
