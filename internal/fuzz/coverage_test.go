package fuzz

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/array"
	"repro/internal/obs"
	"repro/internal/workload"
)

func runRectCampaign(t *testing.T, mutate func(*Config)) *Result {
	t.Helper()
	space := array.MustSpace(64, 64)
	params := workload.ParamSpace{{Lo: 0, Hi: 63}, {Lo: 0, Hi: 63}}
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.MaxIter = 600
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(params, space, rectEvaluator(space, 10, 30, 10, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCoverageSeriesRecorded: every campaign records one point per
// batch, internally consistent with the campaign totals.
func TestCoverageSeriesRecorded(t *testing.T) {
	res := runRectCampaign(t, nil)
	s := res.Coverage
	if s == nil || len(s.Points) == 0 {
		t.Fatal("no coverage series recorded")
	}
	if len(s.Points) != res.Batches {
		t.Fatalf("%d points for %d batches", len(s.Points), res.Batches)
	}
	if s.SpaceSize != 64*64 || len(s.Dims) != 2 {
		t.Fatalf("series geometry wrong: dims=%v size=%d", s.Dims, s.SpaceSize)
	}
	sumNew := 0
	for i, p := range s.Points {
		if p.Round != i+1 {
			t.Fatalf("point %d has round %d", i, p.Round)
		}
		if i > 0 {
			prev := s.Points[i-1]
			if p.Covered < prev.Covered || p.Evaluations < prev.Evaluations || p.Iterations < prev.Iterations {
				t.Fatalf("series not monotone at point %d: %+v after %+v", i, p, prev)
			}
			if p.Covered != prev.Covered+p.New {
				t.Fatalf("point %d: covered %d != prev %d + new %d", i, p.Covered, prev.Covered, p.New)
			}
		}
		if len(p.DimCoverage) != 2 {
			t.Fatalf("point %d: dim coverage %v", i, p.DimCoverage)
		}
		for k, c := range p.DimCoverage {
			if c < 0 || c > 1 {
				t.Fatalf("point %d dim %d coverage %v out of [0,1]", i, k, c)
			}
		}
		if p.Saturation < 0 || p.Saturation > 1 {
			t.Fatalf("point %d saturation %v out of [0,1]", i, p.Saturation)
		}
		sumNew += p.New
	}
	final := s.Final()
	if final.Covered != res.Indices.Len() || sumNew != res.Indices.Len() {
		t.Fatalf("final covered %d, summed new %d, want %d", final.Covered, sumNew, res.Indices.Len())
	}
	if final.Evaluations != res.Evaluations || final.Iterations != res.Iterations {
		t.Fatalf("final point %+v disagrees with result (%d evals, %d iters)",
			final, res.Evaluations, res.Iterations)
	}
	// An idle-stopped campaign must look saturated: its last window
	// found nothing.
	if res.StopReason == StopIdle && final.Saturation != 1 {
		t.Fatalf("idle-stopped campaign reports saturation %v, want 1", final.Saturation)
	}
	// Per-dimension coverage of the final point must equal the
	// fraction of distinct coordinates actually covered per axis.
	distinct := [2]map[int]bool{{}, {}}
	res.Indices.Each(func(ix array.Index) bool {
		distinct[0][ix[0]] = true
		distinct[1][ix[1]] = true
		return true
	})
	for k, c := range final.DimCoverage {
		want := float64(len(distinct[k])) / 64.0
		if c != want {
			t.Fatalf("dim %d coverage %v, want %v", k, c, want)
		}
	}
}

// TestTelemetryDoesNotPerturbCampaign pins the acceptance criterion:
// witness recording and the live coverage callback leave the campaign
// bit-identical to a bare run, at any worker count.
func TestTelemetryDoesNotPerturbCampaign(t *testing.T) {
	ref := runRectCampaign(t, nil) // telemetry off, sequential
	for _, workers := range []int{1, 4} {
		var callbacks int
		got := runRectCampaign(t, func(cfg *Config) {
			cfg.Workers = workers
			cfg.Witnesses = true
			cfg.OnCoverage = func(CoveragePoint) { callbacks++ }
		})
		if !sameIndexSet(ref.Indices, got.Indices) {
			t.Errorf("workers=%d: telemetry changed the covered set", workers)
		}
		if len(got.Seeds) != len(ref.Seeds) || got.Evaluations != ref.Evaluations ||
			got.StopReason != ref.StopReason {
			t.Errorf("workers=%d: telemetry changed the schedule (%d seeds, %d evals, %q)",
				workers, len(got.Seeds), got.Evaluations, got.StopReason)
		}
		for i := range ref.Curve {
			if got.Curve[i] != ref.Curve[i] {
				t.Fatalf("workers=%d: curve diverges at %d", workers, i)
			}
		}
		if callbacks != got.Batches {
			t.Errorf("workers=%d: %d OnCoverage callbacks for %d batches", workers, callbacks, got.Batches)
		}
		// The coverage series itself is deterministic (wall-clock field
		// aside).
		if len(got.Coverage.Points) != len(ref.Coverage.Points) {
			t.Fatalf("workers=%d: %d coverage points, want %d",
				workers, len(got.Coverage.Points), len(ref.Coverage.Points))
		}
		for i, p := range got.Coverage.Points {
			q := ref.Coverage.Points[i]
			p.ElapsedMS, q.ElapsedMS = 0, 0
			if p.Round != q.Round || p.Covered != q.Covered || p.New != q.New ||
				p.Evaluations != q.Evaluations || p.Saturation != q.Saturation {
				t.Fatalf("workers=%d: coverage point %d differs: %+v vs %+v", workers, i, p, q)
			}
		}
	}
}

// TestWitnessMapCorrect: every witness entry names a useful seed whose
// valuation rounds to exactly the witnessed index (the rect evaluator
// covers one index per seed).
func TestWitnessMapCorrect(t *testing.T) {
	res := runRectCampaign(t, func(cfg *Config) { cfg.Witnesses = true })
	if len(res.Witnesses) != res.Indices.Len() {
		t.Fatalf("%d witnesses for %d covered indices", len(res.Witnesses), res.Indices.Len())
	}
	space := array.MustSpace(64, 64)
	for lin, ord := range res.Witnesses {
		if ord < 0 || ord >= len(res.Seeds) {
			t.Fatalf("witness ordinal %d out of range (%d seeds)", ord, len(res.Seeds))
		}
		s := res.Seeds[ord]
		if !s.Useful {
			t.Fatalf("witness for lin %d names non-useful seed %d", lin, ord)
		}
		ix, err := space.Unlinear(lin)
		if err != nil {
			t.Fatal(err)
		}
		if workload.RoundParam(s.V[0]) != ix[0] || workload.RoundParam(s.V[1]) != ix[1] {
			t.Fatalf("witness lin %d (index %v) names seed %d with v=%v", lin, ix, ord, s.V)
		}
	}
	// Without the flag no map is recorded.
	if bare := runRectCampaign(t, nil); bare.Witnesses != nil {
		t.Fatal("witness map recorded without Config.Witnesses")
	}
}

// TestCoverageSeriesJSONRoundTrip: the artifact written by
// `kondo -coverage-out` loads back identically.
func TestCoverageSeriesJSONRoundTrip(t *testing.T) {
	res := runRectCampaign(t, nil)
	path := filepath.Join(t.TempDir(), "coverage.json")
	if err := res.Coverage.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCoverageSeries(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res.Coverage)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("round trip changed the series:\n%s\nvs\n%s", a, b)
	}
}

// TestCoverageGaugesPublished: the new kondo_fuzz_* instruments are
// set when a registry rides the context.
func TestCoverageGaugesPublished(t *testing.T) {
	space := array.MustSpace(64, 64)
	params := workload.ParamSpace{{Lo: 0, Hi: 63}, {Lo: 0, Hi: 63}}
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.MaxIter = 300
	f, err := New(params, space, rectEvaluator(space, 10, 30, 10, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, err := f.Run(obs.WithRegistry(context.Background(), reg))
	if err != nil {
		t.Fatal(err)
	}
	final := res.Coverage.Final()
	if got := reg.Gauge("kondo_fuzz_saturation").Value(); got != final.Saturation {
		t.Errorf("kondo_fuzz_saturation = %v, want %v", got, final.Saturation)
	}
	if got := reg.Gauge("kondo_fuzz_new_indices").Value(); got != float64(final.New) {
		t.Errorf("kondo_fuzz_new_indices = %v, want %v", got, final.New)
	}
	for k := 0; k < 2; k++ {
		g := reg.Gauge("kondo_fuzz_dim_coverage", obs.L("dim", []string{"0", "1"}[k]))
		if got := g.Value(); got != final.DimCoverage[k] {
			t.Errorf("kondo_fuzz_dim_coverage{dim=%d} = %v, want %v", k, got, final.DimCoverage[k])
		}
	}
}

// A series that fails to encode (NaN is not JSON) leaves the file it
// would have replaced as it was and no temporary file beside it.
func TestCoverageWriteFileFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "coverage.json")
	good := &CoverageSeries{Dims: []int{4}, SpaceSize: 4,
		Points: []CoveragePoint{{Round: 1, Covered: 2, New: 2, DimCoverage: []float64{0.5}}}}
	if err := good.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := &CoverageSeries{Dims: []int{4}, SpaceSize: 4,
		Points: []CoveragePoint{{Round: 1, Covered: 3, DimCoverage: []float64{0.75}, Saturation: math.NaN()}}}
	if err := bad.WriteFile(path); err == nil {
		t.Fatal("a NaN coverage point encoded without error")
	}
	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(now, old) {
		t.Fatalf("failed write changed the file:\n%s\nwant:\n%s", now, old)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 {
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		t.Fatalf("directory holds %v, want only coverage.json", names)
	}
}
