package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestObservabilityBypassesConcurrencyLimit holds the only data-plane
// slot (-concurrency 1) with a request that blocks until released; the
// observability endpoints must still answer promptly, as a drain probe
// or an overload scrape needs them to.
func TestObservabilityBypassesConcurrencyLimit(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	data := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	})
	ts := httptest.NewServer(handler(data, obs.NewEndpoints(obs.NewRegistry()), 1))
	defer ts.Close()
	held := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/chunk?dataset=data&chunk=0,0&proof=1")
		if err == nil {
			resp.Body.Close()
		}
		held <- err
	}()
	<-entered
	defer func() {
		close(release)
		if err := <-held; err != nil {
			t.Errorf("held data request: %v", err)
		}
	}()

	client := &http.Client{Timeout: time.Second}
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("%s while the data plane is saturated: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
}
