package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/prov"
	"repro/internal/sdf"
	"repro/internal/workload"
	"repro/kondo"
)

// TestExplainEndToEnd pins the acceptance criterion: debloat a small
// ARD data file with witness recording on, build the
// inclusion-provenance index, and attribute a kept byte of the
// debloated file back to its originating hull and seed valuation via
// `kondo explain`.
func TestExplainEndToEnd(t *testing.T) {
	p, err := workload.NewARD(24, 36, 16, 4, 8, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kondo.DefaultConfig()
	cfg.Fuzz.Seed = 7
	cfg.Fuzz.MaxEvals = 120
	cfg.Fuzz.Workers = 2
	cfg.Fuzz.Witnesses = true
	res, err := kondo.Debloat(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fuzz.Witnesses) == 0 {
		t.Fatal("campaign recorded no witnesses")
	}
	if len(res.Hulls) == 0 {
		t.Fatal("campaign carved no hulls")
	}

	// Materialize the origin and the chunk-granular debloated file.
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.sdf")
	w := sdf.NewWriter(orig)
	dw, err := w.CreateDataset("data", p.Space(), array.Float64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 { return float64(ix[0]) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	deb := filepath.Join(dir, "deb.sdf")
	chunk := []int{6, 6, 4}
	if _, err := kondo.WriteSubset(orig, deb, "data", res.Approx, chunk); err != nil {
		t.Fatal(err)
	}

	// Build and save the inclusion-provenance index.
	provPath := filepath.Join(dir, "prov.json")
	idx := prov.New(p.Name(), "data", p.Space(), "chunk", chunk,
		res.Hulls, res.Fuzz.Seeds, res.Fuzz.Witnesses)
	if err := idx.Save(provPath); err != nil {
		t.Fatal(err)
	}

	// Pick a witnessed index and find the byte of the debloated file
	// that stores it.
	var witnessIx array.Index
	var wantSeed int
	for lin, seed := range res.Fuzz.Witnesses {
		ix, err := p.Space().Unlinear(lin)
		if err != nil {
			t.Fatal(err)
		}
		witnessIx = ix
		wantSeed = seed
		break
	}
	f, err := sdf.Open(deb)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := f.Dataset("data")
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	offset, err := ds.FileOffset(witnessIx)
	f.Close()
	if err != nil {
		t.Fatalf("witnessed index %v not stored in debloated file: %v", witnessIx, err)
	}

	// Offset-form query, JSON output.
	var stdout, stderr bytes.Buffer
	args := []string{"-prov", provPath, "-dataset", "data", "-json", deb, fmt.Sprint(offset)}
	if err := explainMode(&stdout, &stderr, args); err != nil {
		t.Fatalf("explain failed: %v\nstderr: %s", err, stderr.String())
	}
	var att prov.Attribution
	if err := json.Unmarshal(stdout.Bytes(), &att); err != nil {
		t.Fatalf("bad explain JSON: %v\n%s", err, stdout.String())
	}
	if !reflect.DeepEqual(att.Index, witnessIx) {
		t.Fatalf("offset %d attributed to index %v, want %v", offset, att.Index, witnessIx)
	}
	if !att.Witnessed {
		t.Fatalf("witnessed index reported unwitnessed: %+v", att)
	}
	if att.Seed != wantSeed {
		t.Fatalf("attributed to seed %d, want %d", att.Seed, wantSeed)
	}
	if !reflect.DeepEqual(att.SeedValue, res.Fuzz.Seeds[wantSeed].V) {
		t.Fatalf("seed valuation %v, want %v", att.SeedValue, res.Fuzz.Seeds[wantSeed].V)
	}
	if att.Hull < 0 || att.Hull >= len(res.Hulls) {
		t.Fatalf("attributed to hull %d of %d", att.Hull, len(res.Hulls))
	}

	// A byte inside the element, not its first, names the same index.
	stdout.Reset()
	args = []string{"-prov", provPath, "-dataset", "data", "-json", deb, fmt.Sprint(offset + 5)}
	if err := explainMode(&stdout, &stderr, args); err != nil {
		t.Fatalf("mid-element explain failed: %v\nstderr: %s", err, stderr.String())
	}
	var mid prov.Attribution
	if err := json.Unmarshal(stdout.Bytes(), &mid); err != nil {
		t.Fatalf("bad explain JSON: %v\n%s", err, stdout.String())
	}
	if !reflect.DeepEqual(mid.Index, witnessIx) {
		t.Fatalf("offset %d attributed to index %v, want %v", offset+5, mid.Index, witnessIx)
	}

	// Index-form query, prose output, against the same position.
	stdout.Reset()
	q := fmt.Sprintf("%d,%d,%d", witnessIx[0], witnessIx[1], witnessIx[2])
	if err := explainMode(&stdout, &stderr, []string{"-prov", provPath, "-", q}); err != nil {
		t.Fatalf("index-form explain failed: %v", err)
	}
	out := stdout.String()
	if !strings.Contains(out, fmt.Sprintf("debloat test #%d", wantSeed)) {
		t.Fatalf("prose output does not name the debloat test:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("hull:      #%d", att.Hull)) {
		t.Fatalf("prose output does not name the hull:\n%s", out)
	}
}

func TestExplainRejectsBadInvocations(t *testing.T) {
	var out bytes.Buffer
	if err := explainMode(&out, &out, []string{"x.sdf", "12"}); err == nil {
		t.Fatal("expected error without -prov")
	}
	if err := explainMode(&out, &out, []string{"-prov", "nope.json"}); err == nil {
		t.Fatal("expected error with missing positional args")
	}
	if err := explainMode(&out, &out, []string{"-prov", "nope.json", "x.sdf", "12"}); err == nil {
		t.Fatal("expected error for unreadable index")
	}
}
