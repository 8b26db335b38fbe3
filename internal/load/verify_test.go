package load

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/array"
	"repro/internal/dataserve"
	"repro/internal/sdf"
)

// startVerifiedOrigin is startOrigin plus the trusted Merkle spec built
// from the origin file, the way a debloat manifest would carry it.
func startVerifiedOrigin(t testing.TB, space array.Space, chunk []int) (*httptest.Server, sdf.MerkleSpec) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "origin.sdf")
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset("data", space, array.Float64, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := dataserve.NewServer(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	f, err := sdf.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := f.Dataset("data")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := sdf.BuildDatasetMerkle(ds, sdf.ServingChunk(ds))
	if err != nil {
		t.Fatal(err)
	}
	return ts, tree.SpecOf(ds)
}

// TestRunVerifiedLoad pins the harness wiring: Config.Verify arms the
// fetcher, every miss carries a checked proof, the window stats report
// the verify counters, and OnFetcher observes the run's fetcher.
func TestRunVerifiedLoad(t *testing.T) {
	ts, spec := startVerifiedOrigin(t, array.MustSpace(32, 32), []int{8, 8})
	var observed *dataserve.Fetcher
	res, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Mode:        Closed,
		Popularity:  Uniform,
		Requests:    200,
		Concurrency: 4,
		Seed:        7,
		Verify:      &spec,
		OnFetcher:   func(f *dataserve.Fetcher) { observed = f },
	})
	if err != nil {
		t.Fatal(err)
	}
	if observed == nil {
		t.Fatal("OnFetcher was not called")
	}
	if res.Requests != 200 || res.Errors != 0 {
		t.Fatalf("requests=%d errors=%d, want 200/0", res.Requests, res.Errors)
	}
	if res.Fetch.VerifyOK == 0 || res.Fetch.VerifyFailed != 0 {
		t.Fatalf("window verify ok=%d failed=%d, want >0/0", res.Fetch.VerifyOK, res.Fetch.VerifyFailed)
	}
	if st := observed.Stats(); st.VerifyOK == 0 {
		t.Fatalf("fetcher verify counters empty: %+v", st)
	}
}

// TestRunVerifiedLoadMeasuresBlastRadius pins that verification
// failures do not abort the run: a wrong root makes every miss fail
// terminally, the run completes, and the window counts the damage.
func TestRunVerifiedLoadMeasuresBlastRadius(t *testing.T) {
	ts, spec := startVerifiedOrigin(t, array.MustSpace(32, 32), []int{8, 8})
	spec.Root[0] ^= 0xff
	res, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Mode:        Closed,
		Popularity:  Uniform,
		Requests:    100,
		Concurrency: 4,
		Seed:        7,
		Verify:      &spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 100 {
		t.Fatalf("run aborted at %d requests", res.Requests)
	}
	if res.Errors == 0 || res.Fetch.VerifyFailed == 0 {
		t.Fatalf("tampered root went unnoticed: errors=%d verify_failed=%d", res.Errors, res.Fetch.VerifyFailed)
	}
	if res.Fetch.VerifyOK != 0 {
		t.Fatalf("VerifyOK = %d under a wrong root", res.Fetch.VerifyOK)
	}
}
