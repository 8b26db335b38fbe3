package status

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// testFleetEvent mirrors the shape cmd/kondo-coord publishes without
// importing orchestra (the status layer is deliberately generic).
type testFleetEvent struct {
	Kind    string `json:"kind"`
	LeaseID uint64 `json:"lease_id"`
	Worker  string `json:"worker"`
}

func TestFleetzWithoutSourceIs404(t *testing.T) {
	s := newTestServer()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/fleetz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/fleetz without a source = %d, want 404", resp.StatusCode)
	}
}

func TestFleetzServesSnapshot(t *testing.T) {
	s := newTestServer()
	s.SetFleetSource(func() any {
		return map[string]any{"workers": []map[string]any{{"worker": "alice", "straggler": true}}}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/fleetz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/fleetz = %d, want 200", resp.StatusCode)
	}
	var body struct {
		Workers []struct {
			Worker    string `json:"worker"`
			Straggler bool   `json:"straggler"`
		} `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Workers) != 1 || body.Workers[0].Worker != "alice" || !body.Workers[0].Straggler {
		t.Fatalf("snapshot = %+v", body)
	}
}

func TestFleetStreamReplaysBacklogAndLiveEvents(t *testing.T) {
	s := newTestServer()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.PublishFleetEvent(testFleetEvent{Kind: "granted", LeaseID: 1, Worker: "alice"})
	s.PublishFleetEvent(testFleetEvent{Kind: "completed", LeaseID: 1, Worker: "alice"})

	resp, err := http.Get(ts.URL + "/fleetz/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q", ct)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var kinds []string
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(resp.Body)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && event == "lease":
				var ev testFleetEvent
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					t.Errorf("bad lease frame: %v", err)
				}
				kinds = append(kinds, ev.Kind)
			}
			if event == "done" && line == "" {
				return
			}
		}
	}()

	s.PublishFleetEvent(testFleetEvent{Kind: "expired", LeaseID: 2, Worker: "bob"})
	s.Finish()
	wg.Wait()

	want := []string{"granted", "completed", "expired"}
	if len(kinds) != len(want) {
		t.Fatalf("stream delivered %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("stream delivered %v, want %v", kinds, want)
		}
	}
}

func TestFleetStreamBacklogIsBounded(t *testing.T) {
	s := newTestServer()
	for i := 0; i < fleetBacklog*3; i++ {
		s.PublishFleetEvent(testFleetEvent{Kind: "granted", LeaseID: uint64(i)})
	}
	backlog, _, cancel := s.fleet.subscribe()
	defer cancel()
	if len(backlog) != fleetBacklog {
		t.Fatalf("backlog holds %d events, want %d", len(backlog), fleetBacklog)
	}
	// The tail is the most recent events.
	last := backlog[len(backlog)-1].(testFleetEvent)
	if last.LeaseID != uint64(fleetBacklog*3-1) {
		t.Fatalf("backlog tail = %+v, want the newest event", last)
	}
}

func TestFleetSlowSubscriberIsDroppedNotBlocking(t *testing.T) {
	s := newTestServer()
	_, ch, cancel := s.fleet.subscribe()
	defer cancel()
	if ch == nil {
		t.Fatal("expected live channel")
	}
	for i := 0; i < subBuffer*4; i++ {
		s.PublishFleetEvent(testFleetEvent{Kind: "granted", LeaseID: uint64(i)})
	}
	// The subscriber was dropped: its channel is closed after the
	// buffered prefix.
	n := 0
	for range ch {
		n++
		if n > subBuffer {
			t.Fatal("slow subscriber was never dropped: " + strconv.Itoa(n))
		}
	}
	if n != subBuffer {
		t.Fatalf("drained %d buffered events, want %d", n, subBuffer)
	}
}
