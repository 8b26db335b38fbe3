package kondo_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/ioevent"
	"repro/internal/sdf"
	"repro/kondo"
)

// TestFacadeEndToEnd exercises the public API the way a downstream
// user would: pick a program, debloat it, check quality, materialize
// the subset, and serve reads from it.
func TestFacadeEndToEnd(t *testing.T) {
	p, err := kondo.ProgramByName("LDC2D")
	if err != nil {
		t.Fatal(err)
	}
	cfg := kondo.DefaultConfig()
	cfg.Fuzz.Seed = 1
	res, err := kondo.Debloat(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := kondo.GroundTruth(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := kondo.Evaluate(truth, res.Approx)
	if pr.Recall < 0.9 || pr.Precision < 0.9 {
		t.Fatalf("LDC2D quality: %+v", pr)
	}
	if b := kondo.BloatFraction(p.Space(), res.Approx); b < 0.8 {
		t.Errorf("bloat fraction %v, want > 0.8 for LDC", b)
	}

	// Materialize a data file and its debloated subset.
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.sdf")
	w := sdf.NewWriter(orig)
	dw, err := w.CreateDataset("data", p.Space(), array.Float64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 { return 1 }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	deb := filepath.Join(dir, "deb.sdf")
	stats, err := kondo.WriteSubset(orig, deb, "data", res.Approx, []int{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reduction() < 0.5 {
		t.Errorf("Reduction = %v, want > 0.5", stats.Reduction())
	}

	// Serve reads through the runtime.
	rt, closer, err := kondo.OpenRuntime(deb, "data", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if _, err := rt.ReadElement(array.NewIndex(0, 0)); err != nil {
		t.Errorf("corner read failed: %v", err)
	}
	if _, err := rt.ReadElement(array.NewIndex(64, 64)); !errors.Is(err, kondo.ErrDataMissing) {
		t.Errorf("center read error = %v, want ErrDataMissing", err)
	}

	// And with recovery.
	fetcher, err := kondo.NewOriginFetcher(orig)
	if err != nil {
		t.Fatal(err)
	}
	defer fetcher.Close()
	rt2, closer2, err := kondo.OpenRuntime(deb, "data", fetcher)
	if err != nil {
		t.Fatal(err)
	}
	defer closer2.Close()
	if v, err := rt2.ReadElement(array.NewIndex(64, 64)); err != nil || v != 1 {
		t.Errorf("recovered read = %v, %v", v, err)
	}
}

func TestFacadePrograms(t *testing.T) {
	if len(kondo.Programs()) != 11 {
		t.Errorf("Programs() = %d, want 11", len(kondo.Programs()))
	}
	if _, err := kondo.ProgramByName("bogus"); err == nil {
		t.Error("unknown program should error")
	}
	p, err := kondo.ProgramForSpace("CS3", []int{64, 64})
	if err != nil || p.Space().Dim(0) != 64 {
		t.Errorf("ProgramForSpace = %v, %v", p, err)
	}
}

// TestFacadeRemoteAndProvenance exercises the §VI extensions through
// the public API: HTTP recovery and the provenance chain.
func TestFacadeRemoteAndProvenance(t *testing.T) {
	dir := t.TempDir()
	p, err := kondo.ProgramByName("CS2")
	if err != nil {
		t.Fatal(err)
	}
	p, err = kondo.ProgramForSpace("CS2", []int{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	space := p.Space()
	origin := filepath.Join(dir, "origin.sdf")
	w := sdf.NewWriter(origin)
	dw, err := w.CreateDataset("data", space, array.Float64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(array.Index) float64 { return 7 }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := kondo.DefaultConfig()
	cfg.Fuzz.Seed = 1
	cfg.Fuzz.MaxEvals = 400
	res, err := kondo.Debloat(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	deb := filepath.Join(dir, "deb.sdf")
	stats, err := kondo.WriteSubset(origin, deb, "data", res.Approx, []int{16, 16})
	if err != nil {
		t.Fatal(err)
	}

	// Remote recovery through the facade.
	srv, err := kondo.NewDataServer(origin)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := kondo.NewCachedFetcher(ts.URL)
	rt, closer, err := kondo.OpenRuntime(deb, "data", client)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if v, err := rt.ReadElement(array.NewIndex(63, 0)); err != nil || v != 7 {
		t.Errorf("remote recovery through facade = %v, %v", v, err)
	}
	if client.Stats().Elements == 0 {
		t.Error("no elements fetched")
	}

	// Provenance chain through the facade.
	g := kondo.ProvenanceFromStore(ioevent.NewStore())
	if err := kondo.RecordDebloatProvenance(g, "origin.sdf", "deb.sdf", p.Name(), res, stats); err != nil {
		t.Fatal(err)
	}
	anc := g.Ancestry("artifact:deb.sdf")
	if len(anc) != 2 {
		t.Errorf("debloat ancestry = %v, want activity + origin", anc)
	}
	var b strings.Builder
	if err := g.DOT(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "wasDerivedFrom") {
		t.Error("DOT missing derivation edge")
	}
}

func TestFacadeContainer(t *testing.T) {
	spec, err := kondo.ParseSpec(strings.NewReader(
		"FROM ubuntu:20.04\nADD ./d.sdf /app/d.sdf\nPARAM [0-63, 0-63]\nENTRYPOINT [\"CS2\"]\nCMD [1, 1, /app/d.sdf]"))
	if err != nil {
		t.Fatal(err)
	}
	srcDir := t.TempDir()
	space := array.MustSpace(64, 64)
	w := sdf.NewWriter(filepath.Join(srcDir, "d.sdf"))
	dw, err := w.CreateDataset("data", space, array.Float64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(array.Index) float64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := kondo.BuildImage(spec, srcDir, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := img.Run([]float64{1, 1}, "data", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Misses != 0 {
		t.Errorf("misses = %d", rep.Misses)
	}
}
