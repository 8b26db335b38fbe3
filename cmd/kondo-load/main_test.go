package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// testLog discards stitchAndWrite's diagnostics.
type testLog struct{}

func (testLog) Info(string, ...any) {}
func (testLog) Warn(string, ...any) {}

// TestStitchSurvivesStalledTracez: an origin whose /tracez never
// answers must not hang the harness's exit — the pull gives up at its
// deadline and the client's own trace is still written.
func TestStitchSurvivesStalledTracez(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // never answer
	}))
	defer origin.Close()

	tr := obs.NewTrace()
	tr.SetProcessName(obs.LocalPID, "kondo-load")
	obs.Start(obs.WithTrace(context.Background(), tr), "load.mark").End()
	path := filepath.Join(t.TempDir(), "trace.json")

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		stitchAndWrite(ctx, testLog{}, tr, origin.URL, path)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stitchAndWrite hung on a stalled /tracez")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "load.mark") {
		t.Fatalf("written trace lacks the client's events:\n%s", data)
	}
	if pids := tr.PIDs(); len(pids) != 1 {
		t.Fatalf("trace pids = %v, want the client's alone", pids)
	}
}

func TestDecodeTraceByteCap(t *testing.T) {
	body := `{"process_name":"kondo-serve","epoch_unix_ns":1,"events":[{"n":"serve.chunk","ts":5}]}`
	wt, err := decodeTrace(strings.NewReader(body), int64(len(body)))
	if err != nil {
		t.Fatalf("body at the cap: %v", err)
	}
	if wt.ProcessName != "kondo-serve" || len(wt.Events) != 1 {
		t.Fatalf("decoded %+v", wt)
	}
	_, err = decodeTrace(strings.NewReader(body), int64(len(body))-10)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized body: err = %v, want the byte cap", err)
	}
}
