package dataserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/debloat"
	"repro/internal/obs"
	"repro/internal/sdf"
)

// originValue is the deterministic element value every test origin is
// filled with.
func originValue(space array.Space, ix array.Index) float64 {
	lin, _ := space.Linear(ix)
	return float64(lin) * 0.5
}

// writeOriginFile materializes a filled origin. A nil chunk shape
// selects a contiguous layout.
func writeOriginFile(t testing.TB, space array.Space, chunk []int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "origin.sdf")
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset("data", space, array.Float64, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 { return originValue(space, ix) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// startServer returns a Server over a fresh origin plus an httptest
// server mounted on its handler.
func startServer(t testing.TB, space array.Space, chunk []int) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(writeOriginFile(t, space, chunk))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// startDaemon is startServer with the data plane served the way
// kondo-serve serves it: behind the shared observability endpoints
// over the server's own registry.
func startDaemon(t testing.TB, space array.Space, chunk []int) (*Server, *obs.Endpoints, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(writeOriginFile(t, space, chunk))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ep := obs.NewEndpoints(srv.Registry())
	ts := httptest.NewServer(ep.Handler(srv.Handler()))
	t.Cleanup(ts.Close)
	return srv, ep, ts
}

// chunkRequests reads the server's /chunk request counter from its
// registry.
func chunkRequests(srv *Server) int64 {
	return srv.Registry().Counter("kondo_serve_requests_total", obs.L("endpoint", "chunk")).Value()
}

func getMeta(t *testing.T, ts *httptest.Server, dataset string) DatasetMeta {
	t.Helper()
	resp, err := http.Get(ts.URL + "/meta?dataset=" + dataset)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("meta status = %d", resp.StatusCode)
	}
	var meta DatasetMeta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	return meta
}

func TestMetaChunkSlabRoundTrip(t *testing.T) {
	space := array.MustSpace(30, 20) // 30 is not a multiple of 8: edge chunks clip
	_, ts := startServer(t, space, []int{8, 8})

	meta := getMeta(t, ts, "data")
	if !meta.Chunked || fmt.Sprint(meta.Chunk) != "[8 8]" || fmt.Sprint(meta.Dims) != "[30 20]" {
		t.Fatalf("meta = %+v", meta)
	}

	// Chunk (3,2) is the bottom-right edge chunk: rows 24..29, cols 16..19.
	resp, err := http.Get(ts.URL + "/chunk?dataset=data&chunk=3,2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk status = %d", resp.StatusCode)
	}
	cf, err := decodeChunkFrame(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The frame names what it answers: leaf 3*3+2 of the 4x3 grid. No
	// proof was asked for, so none is carried.
	if cf.Dataset != "data" || fmt.Sprint(cf.Chunk) != "[3 2]" || cf.Leaf != 11 || cf.Leaves != 12 || len(cf.Proof) != 0 {
		t.Fatalf("frame identity = %q %v leaf %d/%d, %d proof siblings", cf.Dataset, cf.Chunk, cf.Leaf, cf.Leaves, len(cf.Proof))
	}
	if len(cf.Vals) != 6*4 {
		t.Fatalf("edge chunk carries %d values, want 24", len(cf.Vals))
	}
	i := 0
	for r := 24; r < 30; r++ {
		for c := 16; c < 20; c++ {
			if want := originValue(space, array.NewIndex(r, c)); cf.Vals[i] != want {
				t.Fatalf("chunk value at (%d,%d) = %v, want %v", r, c, cf.Vals[i], want)
			}
			i++
		}
	}
}

func TestContiguousOriginGetsServingChunks(t *testing.T) {
	space := array.MustSpace(128, 128)
	_, ts := startServer(t, space, nil)

	meta := getMeta(t, ts, "data")
	if meta.Chunked {
		t.Error("contiguous origin reported as chunked")
	}
	vol := 1
	for _, c := range meta.Chunk {
		vol *= c
	}
	if vol > defaultServingElems || vol <= 0 {
		t.Errorf("serving chunk %v volume %d exceeds target %d", meta.Chunk, vol, defaultServingElems)
	}
	resp, err := http.Get(ts.URL + "/chunk?dataset=data&chunk=0,0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	cf, err := decodeChunkFrame(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.Vals) != meta.Chunk[0]*meta.Chunk[1] {
		t.Fatalf("chunk carries %d values, want %d", len(cf.Vals), meta.Chunk[0]*meta.Chunk[1])
	}
	if want := originValue(space, array.NewIndex(0, 1)); cf.Vals[1] != want {
		t.Errorf("vals[1] = %v, want %v", cf.Vals[1], want)
	}
}

func TestServingChunkDerivation(t *testing.T) {
	cases := []struct {
		dims   []int
		target int64
	}{
		{[]int{128, 128}, 4096},
		{[]int{1, 1}, 4096},
		{[]int{5000}, 4096},
		{[]int{3, 7, 11}, 16},
		{[]int{1024, 1, 1024}, 4096},
	}
	for _, c := range cases {
		chunk := sdf.ServingChunkShape(c.dims, c.target)
		vol := int64(1)
		for k, e := range chunk {
			if e < 1 || e > c.dims[k] {
				t.Errorf("ServingChunkShape(%v) = %v: extent %d out of range", c.dims, chunk, e)
			}
			vol *= int64(e)
		}
		if vol > c.target {
			t.Errorf("ServingChunkShape(%v, %d) = %v: volume %d over target", c.dims, c.target, chunk, vol)
		}
	}
}

func TestServerErrorPaths(t *testing.T) {
	space := array.MustSpace(16, 16)
	_, ts := startServer(t, space, []int{4, 4})

	status := func(t *testing.T, url string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status(t, "/meta?dataset=nope"); got != http.StatusNotFound {
		t.Errorf("unknown dataset meta = %d, want 404", got)
	}
	if got := status(t, "/chunk?dataset=nope&chunk=0,0"); got != http.StatusNotFound {
		t.Errorf("unknown dataset chunk = %d, want 404", got)
	}
	if got := status(t, "/chunk?dataset=data"); got != http.StatusBadRequest {
		t.Errorf("missing chunk param = %d, want 400", got)
	}
	if got := status(t, "/chunk?dataset=data&chunk=a,b"); got != http.StatusBadRequest {
		t.Errorf("malformed chunk = %d, want 400", got)
	}
	if got := status(t, "/chunk?dataset=data&chunk=-1,0"); got != http.StatusBadRequest {
		t.Errorf("negative chunk = %d, want 400", got)
	}
	if got := status(t, "/chunk?dataset=data&chunk=99,0"); got != http.StatusBadRequest {
		t.Errorf("out-of-grid chunk = %d, want 400", got)
	}
	if got := status(t, "/chunk?dataset=data&chunk=0"); got != http.StatusBadRequest {
		t.Errorf("rank-mismatched chunk = %d, want 400", got)
	}
}

func TestClosedServerReturns503(t *testing.T) {
	space := array.MustSpace(8, 8)
	srv, ts := startServer(t, space, []int{4, 4})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	for _, url := range []string{"/meta?dataset=data", "/chunk?dataset=data&chunk=0,0"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s after close = %d, want 503", url, resp.StatusCode)
		}
	}
}

// TestDebloatedOriginAnswersGone serves a *debloated* file as origin:
// a chunk that was carved away answers 410 Gone, and the client maps
// it back onto the data-missing exception.
func TestDebloatedOriginAnswersGone(t *testing.T) {
	space := array.MustSpace(16, 16)
	origin := writeOriginFile(t, space, nil)

	// Keep only the top-left 4x4 block.
	keep := array.NewIndexSet(space)
	space.Each(func(ix array.Index) bool {
		if ix[0] < 4 && ix[1] < 4 {
			keep.Add(ix)
		}
		return true
	})
	deb := filepath.Join(t.TempDir(), "deb.sdf")
	if _, err := debloat.WriteSubset(origin, deb, "data", keep, []int{4, 4}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(deb)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/chunk?dataset=data&chunk=3,3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("carved chunk = %d, want 410", resp.StatusCode)
	}

	f := NewFetcher(ts.URL, nil)
	_, err = f.Fetch("data", array.NewIndex(15, 15))
	if !errors.Is(err, sdf.ErrDataMissing) {
		t.Errorf("carved fetch error = %v, want ErrDataMissing", err)
	}
	if _, err := f.Fetch("data", array.NewIndex(1, 1)); err != nil {
		t.Errorf("kept fetch: %v", err)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	space := array.MustSpace(16, 16)
	srv, _, ts := startDaemon(t, space, []int{4, 4})

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/chunk?dataset=data&chunk=0,0")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/chunk?dataset=nope&chunk=0,0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	reg := srv.Registry()
	chunk := obs.L("endpoint", "chunk")
	if req, errs := reg.Counter("kondo_serve_requests_total", chunk).Value(),
		reg.Counter("kondo_serve_errors_total", chunk).Value(); req != 4 || errs != 1 {
		t.Errorf("chunk requests = %d, errors = %d, want 4/1", req, errs)
	}
	if reg.Counter("kondo_serve_response_bytes_total", chunk).Value() <= 0 {
		t.Error("no bytes recorded")
	}

	// The /metrics endpoint serves the same counters. A scrape is not a
	// recovery-plane request, so it counts under no endpoint.
	if out := getMetrics(t, ts, "/metrics"); !strings.Contains(out, `kondo_serve_requests_total{endpoint="chunk"} 4`) {
		t.Errorf("/metrics lacks the chunk request count:\n%s", out)
	}
	if out := getMetrics(t, ts, "/metrics"); strings.Contains(out, `endpoint="metrics"`) {
		t.Errorf("a scrape was counted as a data-plane request:\n%s", out)
	}
}

// getMetrics fetches a metrics exposition, requiring the Prometheus
// text content type.
func getMetrics(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("%s content type = %q, want text/plain exposition", path, ct)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return body.String()
}

func TestMetricsPrometheusFormat(t *testing.T) {
	space := array.MustSpace(16, 16)
	_, _, ts := startDaemon(t, space, []int{4, 4})

	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/chunk?dataset=data&chunk=0,0")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	out := getMetrics(t, ts, "/metrics?format=prom")
	for _, want := range []string{
		"# TYPE kondo_serve_requests_total counter",
		`kondo_serve_requests_total{endpoint="chunk"} 2`,
		"# TYPE kondo_serve_request_seconds histogram",
		"kondo_build_info{",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom exposition missing %q in:\n%s", want, out)
		}
	}

	// Without format=prom the endpoint serves the same exposition.
	if plain := getMetrics(t, ts, "/metrics"); !strings.Contains(plain, `kondo_serve_requests_total{endpoint="chunk"} 2`) {
		t.Errorf("/metrics without format=prom lacks the chunk count:\n%s", plain)
	}
}

func TestServerRequestSpans(t *testing.T) {
	space := array.MustSpace(16, 16)
	srv, _ := startServer(t, space, []int{4, 4})

	tr := obs.NewTrace()
	req := httptest.NewRequest(http.MethodGet, "/chunk?dataset=data&chunk=0,0", nil)
	req = req.WithContext(obs.WithTrace(req.Context(), tr))
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("chunk request failed: %d", rr.Code)
	}
	if tr.Len() != 1 {
		t.Fatalf("trace has %d events, want 1 serve span", tr.Len())
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"serve.chunk"`) {
		t.Errorf("trace lacks serve.chunk span:\n%s", sb.String())
	}
}
