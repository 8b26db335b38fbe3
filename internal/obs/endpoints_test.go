package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// get fetches path from ts, returning the status code and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpointsHealthzDrain(t *testing.T) {
	ep := NewEndpoints(NewRegistry())
	ts := httptest.NewServer(ep.Handler(nil))
	defer ts.Close()

	if code, body := get(t, ts, "/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz before drain = %d %q, want 200 ok", code, body)
	}
	ep.SetDraining(true)
	if !ep.Draining() {
		t.Fatal("Draining() = false after SetDraining(true)")
	}
	if code, body := get(t, ts, "/healthz"); code != http.StatusServiceUnavailable || body != "draining\n" {
		t.Fatalf("healthz during drain = %d %q, want 503 draining", code, body)
	}
	ep.SetDraining(false)
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after undrain = %d", code)
	}
}

func TestEndpointsMetricsAndBuildz(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("kondo_fuzz_saturation").Set(0.25)
	ts := httptest.NewServer(NewEndpoints(reg).Handler(nil))
	defer ts.Close()

	for _, path := range []string{"/metrics", "/metrics?format=prom"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s content type = %q, want text/plain exposition", path, ct)
		}
		for _, want := range []string{"kondo_fuzz_saturation 0.25", "kondo_build_info{"} {
			if !strings.Contains(string(body), want) {
				t.Errorf("%s lacks %q:\n%s", path, want, body)
			}
		}
	}

	code, body := get(t, ts, "/buildz")
	var bi BuildInfo
	if err := json.Unmarshal([]byte(body), &bi); err != nil || code != http.StatusOK {
		t.Fatalf("/buildz = %d %q (%v)", code, body, err)
	}
	if bi != Build() {
		t.Errorf("/buildz = %+v, want %+v", bi, Build())
	}
}

func TestEndpointsTracez(t *testing.T) {
	ep := NewEndpoints(NewRegistry())
	ts := httptest.NewServer(ep.Handler(nil))
	defer ts.Close()

	if code, _ := get(t, ts, "/tracez"); code != http.StatusNotFound {
		t.Fatalf("/tracez without a trace = %d, want 404", code)
	}
	tr := NewTrace()
	tr.SetProcessName(LocalPID, "kondo-serve")
	for i := 0; i < 3; i++ {
		instant(tr, "serve.mark", 0)
	}
	ep.SetTrace(tr)

	code, body := get(t, ts, "/tracez?max=2")
	var wt WireTrace
	if err := json.Unmarshal([]byte(body), &wt); err != nil || code != http.StatusOK {
		t.Fatalf("/tracez = %d %q (%v)", code, body, err)
	}
	if wt.ProcessName != "kondo-serve" || len(wt.Events) != 2 || wt.Omitted != 1 || wt.EpochUnixNS != tr.epoch.UnixNano() {
		t.Fatalf("/tracez?max=2 = %+v, want lane kondo-serve, 2 events, 1 omitted", wt)
	}
	for _, bad := range []string{"-1", "x"} {
		if code, _ := get(t, ts, "/tracez?max="+bad); code != http.StatusBadRequest {
			t.Errorf("/tracez?max=%s = %d, want 400", bad, code)
		}
	}
}

// TestEndpointsDelegatesViews: paths outside the set reach the
// daemon's own views; with no views they answer 404.
func TestEndpointsDelegatesViews(t *testing.T) {
	views := http.NewServeMux()
	views.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "view") })
	ep := NewEndpoints(NewRegistry())

	ts := httptest.NewServer(ep.Handler(views))
	defer ts.Close()
	if code, body := get(t, ts, "/statusz"); code != http.StatusOK || body != "view" {
		t.Fatalf("/statusz = %d %q, want the view", code, body)
	}
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz next to views = %d", code)
	}

	bare := httptest.NewServer(ep.Handler(nil))
	defer bare.Close()
	if code, _ := get(t, bare, "/statusz"); code != http.StatusNotFound {
		t.Fatalf("/statusz without views = %d, want 404", code)
	}
}
