package status

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/obs"
)

func point(round, covered, added int) fuzz.CoveragePoint {
	return fuzz.CoveragePoint{
		Round:       round,
		Iterations:  round * 4,
		Evaluations: round * 4,
		Covered:     covered,
		New:         added,
		DimCoverage: []float64{0.5},
	}
}

func newTestServer() *Server {
	return NewServer(Campaign{Program: "ARD", Workers: 2}, []int{16, 16}, 256)
}

// daemonSurface serves s the way every campaign daemon does: its
// views behind the shared observability endpoints.
func daemonSurface(t *testing.T, s *Server, reg *obs.Registry) (*obs.Endpoints, *httptest.Server) {
	t.Helper()
	ep := obs.NewEndpoints(reg)
	ts := httptest.NewServer(ep.Handler(s.Handler()))
	t.Cleanup(ts.Close)
	return ep, ts
}

func getSnapshot(t *testing.T, ts *httptest.Server) Snapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz status = %d", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestStatuszMonotonicSeries pins the acceptance criterion: as the
// campaign publishes points, /statusz serves a coverage series whose
// length and covered counts grow monotonically.
func TestStatuszMonotonicSeries(t *testing.T) {
	s := newTestServer()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	prevLen, prevCovered := 0, 0
	for round := 1; round <= 5; round++ {
		s.Publish(point(round, round*10, 10))
		snap := getSnapshot(t, ts)
		if got := len(snap.Coverage.Points); got <= prevLen-1 || got != round {
			t.Fatalf("round %d: series length %d, want %d", round, got, round)
		}
		last := snap.Coverage.Points[len(snap.Coverage.Points)-1]
		if last.Covered < prevCovered {
			t.Fatalf("round %d: covered %d shrank below %d", round, last.Covered, prevCovered)
		}
		for i := 1; i < len(snap.Coverage.Points); i++ {
			if snap.Coverage.Points[i].Covered < snap.Coverage.Points[i-1].Covered {
				t.Fatalf("series not monotone at point %d: %+v", i, snap.Coverage.Points)
			}
		}
		prevLen = len(snap.Coverage.Points)
		prevCovered = last.Covered
		if snap.Done {
			t.Fatal("campaign reported done while publishing")
		}
	}

	s.Finish()
	snap := getSnapshot(t, ts)
	if !snap.Done {
		t.Fatal("campaign should report done after Finish")
	}
	if snap.Campaign.Program != "ARD" || snap.Campaign.Workers != 2 {
		t.Fatalf("campaign meta lost: %+v", snap.Campaign)
	}
}

// TestStreamReplaysBacklogAndLivePoints reads the SSE feed and checks
// it replays pre-subscription points, delivers live ones, and
// terminates with a done event.
func TestStreamReplaysBacklogAndLivePoints(t *testing.T) {
	s := newTestServer()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.Publish(point(1, 10, 10))
	s.Publish(point(2, 25, 15))

	resp, err := http.Get(ts.URL + "/statusz/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q", ct)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var events []string
	var points []fuzz.CoveragePoint
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(resp.Body)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
				events = append(events, event)
			case strings.HasPrefix(line, "data: "):
				if event == "coverage" {
					var p fuzz.CoveragePoint
					if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
						t.Errorf("bad coverage frame: %v", err)
					}
					points = append(points, p)
				}
			}
			if event == "done" && line == "" {
				return
			}
		}
	}()

	s.Publish(point(3, 40, 15))
	s.Finish()
	wg.Wait()

	if len(points) != 3 {
		t.Fatalf("stream delivered %d points, want 3 (%v)", len(points), events)
	}
	for i, want := range []int{10, 25, 40} {
		if points[i].Covered != want {
			t.Fatalf("point %d covered = %d, want %d", i, points[i].Covered, want)
		}
	}
	if events[len(events)-1] != "done" {
		t.Fatalf("last event = %q, want done", events[len(events)-1])
	}
}

// TestStreamAfterFinishSendsBacklogThenDone: subscribing to a
// finished campaign still replays the full series.
func TestStreamAfterFinishSendsBacklogThenDone(t *testing.T) {
	s := newTestServer()
	s.Publish(point(1, 5, 5))
	s.Finish()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/statusz/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := new(strings.Builder)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		body.WriteString(sc.Text())
		body.WriteByte('\n')
	}
	out := body.String()
	if !strings.Contains(out, "event: coverage") || !strings.Contains(out, "event: done") {
		t.Fatalf("finished-campaign stream missing frames:\n%s", out)
	}
}

// TestSlowSubscriberIsDroppedNotBlocking: a subscriber that never
// drains must not block Publish.
func TestSlowSubscriberIsDroppedNotBlocking(t *testing.T) {
	s := newTestServer()
	_, ch, cancel := s.coverage.subscribe()
	defer cancel()
	if ch == nil {
		t.Fatal("expected live channel")
	}
	// Publish far more than the buffer without reading; every call
	// must return promptly.
	for i := 0; i < subBuffer*2; i++ {
		s.Publish(point(i+1, i+1, 1))
	}
	s.coverage.mu.Lock()
	n := len(s.coverage.subs)
	s.coverage.mu.Unlock()
	if n != 0 {
		t.Fatalf("lagging subscriber not dropped (%d live subs)", n)
	}
}

// TestMetricsAndHealthz: a campaign daemon's one mux serves the
// campaign views and the shared /healthz and /metrics side by side.
func TestMetricsAndHealthz(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("kondo_fuzz_saturation").Set(0.25)
	s := NewServer(Campaign{Program: "ARD"}, []int{4}, 4)
	_, ts := daemonSurface(t, s, reg)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		buf.WriteString(sc.Text())
		buf.WriteByte('\n')
	}
	if !strings.Contains(buf.String(), "kondo_fuzz_saturation 0.25") {
		t.Fatalf("/metrics missing gauge:\n%s", buf.String())
	}
	if snap := getSnapshot(t, ts); snap.Campaign.Program != "ARD" {
		t.Fatalf("/statusz behind the shared endpoints = %+v", snap.Campaign)
	}
}
