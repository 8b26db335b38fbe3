package repro_test

// The root benchmark suite regenerates the paper's evaluation, one
// benchmark family per table/figure (see DESIGN.md's experiment
// index), plus ablation and substrate micro-benchmarks. Quality
// numbers (precision/recall/bloat) are attached to each benchmark via
// b.ReportMetric, so `go test -bench=.` prints both the cost and the
// reproduced result shape.
//
// For the full formatted tables, run `go run ./cmd/kondo-bench -exp all`.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/carve"
	"repro/internal/dataserve"
	"repro/internal/debloat"
	"repro/internal/fuzz"
	"repro/internal/ioevent"
	"repro/internal/kondo"
	"repro/internal/metrics"
	kobs "repro/internal/obs"
	"repro/internal/sdf"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchBudget is the per-campaign debloat-test budget used by the
// comparison benchmarks (the §V-B max_iter is 2000; a tighter budget
// keeps -bench runs fast while preserving the comparison shape).
const benchBudget = 1500

func truthOf(b *testing.B, p workload.Program) *array.IndexSet {
	b.Helper()
	gt, err := workload.GroundTruth(p)
	if err != nil {
		b.Fatal(err)
	}
	return gt
}

// --- Fig. 7: recall at a fixed budget, Kondo vs BF vs AFL ---

func BenchmarkFig7Kondo(b *testing.B) {
	for _, p := range workload.Micro(workload.Default2D) {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			gt := truthOf(b, p)
			var recall float64
			for i := 0; i < b.N; i++ {
				cfg := kondo.DefaultConfig()
				cfg.Fuzz.Seed = int64(i + 1)
				cfg.Fuzz.MaxEvals = benchBudget
				res, err := kondo.Debloat(context.Background(), p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				recall = metrics.Recall(gt, res.Approx)
			}
			b.ReportMetric(recall, "recall")
		})
	}
}

func BenchmarkFig7BF(b *testing.B) {
	for _, p := range workload.Micro(workload.Default2D) {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			gt := truthOf(b, p)
			var recall float64
			for i := 0; i < b.N; i++ {
				res, err := baseline.BruteForce(context.Background(), p, benchBudget, 0)
				if err != nil {
					b.Fatal(err)
				}
				recall = metrics.Recall(gt, res.Indices)
			}
			b.ReportMetric(recall, "recall")
		})
	}
}

func BenchmarkFig7AFL(b *testing.B) {
	for _, p := range workload.Micro(workload.Default2D) {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			gt := truthOf(b, p)
			var recall float64
			for i := 0; i < b.N; i++ {
				cfg := baseline.DefaultAFLConfig()
				cfg.MaxEvals = benchBudget
				cfg.Seed = int64(i + 1)
				res, err := baseline.AFL(context.Background(), p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				recall = metrics.Recall(gt, res.Indices)
			}
			b.ReportMetric(recall, "recall")
		})
	}
}

// --- Fig. 8: precision, Kondo vs SC (BF/AFL are 1 by construction) ---

func BenchmarkFig8KondoPrecision(b *testing.B) {
	for _, p := range workload.All() {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			gt := truthOf(b, p)
			var prec float64
			for i := 0; i < b.N; i++ {
				cfg := kondo.DefaultConfig()
				cfg.Fuzz.Seed = int64(i + 1)
				cfg.Fuzz.MaxEvals = benchBudget
				res, err := kondo.Debloat(context.Background(), p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				prec = metrics.Precision(gt, res.Approx)
			}
			b.ReportMetric(prec, "precision")
		})
	}
}

func BenchmarkFig8SCPrecision(b *testing.B) {
	for _, p := range workload.Micro(workload.Default2D) {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			gt := truthOf(b, p)
			var prec float64
			for i := 0; i < b.N; i++ {
				cfg := fuzz.DefaultConfig()
				cfg.Seed = int64(i + 1)
				cfg.MaxEvals = benchBudget
				res, err := baseline.SimpleConvex(context.Background(), p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				prec = metrics.Precision(gt, res.Approx)
			}
			b.ReportMetric(prec, "precision")
		})
	}
}

// --- Fig. 9: bloat identified ---

func BenchmarkFig9Bloat(b *testing.B) {
	for _, p := range workload.All() {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			var bloat float64
			for i := 0; i < b.N; i++ {
				cfg := kondo.DefaultConfig()
				cfg.Fuzz.Seed = int64(i + 1)
				cfg.Fuzz.MaxEvals = benchBudget
				res, err := kondo.Debloat(context.Background(), p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				bloat = metrics.BloatFraction(p.Space(), res.Approx)
			}
			b.ReportMetric(100*bloat, "%bloat")
		})
	}
}

// --- Fig. 10: budget for BF to reach Kondo's recall ---

func BenchmarkFig10BFToKondoRecall(b *testing.B) {
	for _, p := range workload.Micro(workload.Default2D) {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			gt := truthOf(b, p)
			cfg := kondo.DefaultConfig()
			cfg.Fuzz.Seed = 1
			cfg.Fuzz.MaxEvals = benchBudget
			res, err := kondo.Debloat(context.Background(), p, cfg)
			if err != nil {
				b.Fatal(err)
			}
			target := metrics.Recall(gt, res.Approx)
			kondoTests := res.Fuzz.Evaluations
			var ratio float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bf, err := baseline.BruteForceUntil(context.Background(), p, 128, func(r *baseline.Result) bool {
					return metrics.Recall(gt, r.Indices) >= target
				})
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(bf.Evaluations) / float64(kondoTests)
			}
			b.ReportMetric(ratio, "bf-tests/kondo-tests")
		})
	}
}

// --- Table III: ARD and MSI ---

func BenchmarkTableIII(b *testing.B) {
	for _, p := range []workload.Program{workload.DefaultARD(), workload.DefaultMSI()} {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			gt := truthOf(b, p)
			var recall, bloat float64
			for i := 0; i < b.N; i++ {
				cfg := kondo.DefaultConfig()
				cfg.Fuzz.Seed = int64(i + 1)
				cfg.Fuzz.MaxEvals = 4000
				cfg.Fuzz.MaxIter = 8000
				res, err := kondo.Debloat(context.Background(), p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				recall = metrics.Recall(gt, res.Approx)
				bloat = metrics.BloatFraction(p.Space(), res.Approx)
			}
			b.ReportMetric(recall, "recall")
			b.ReportMetric(100*bloat, "%debloat")
		})
	}
}

// --- Fig. 11a: data-size sweep on CS3 ---

func BenchmarkFig11aSize(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		n := n
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			p := workload.MustCS(3, n)
			gt := truthOf(b, p)
			var recall float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := kondo.DefaultConfig()
				cfg.Fuzz.Seed = int64(i + 1)
				cfg.Fuzz.MaxEvals = benchBudget
				res, err := kondo.Debloat(context.Background(), p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				recall = metrics.Recall(gt, res.Approx)
			}
			b.ReportMetric(recall, "recall")
		})
	}
}

// --- Fig. 11b/c: center_d_thresh sweep ---

func BenchmarkFig11bcThreshold(b *testing.B) {
	p := workload.MustCS(2, workload.Default2D)
	gt := truthOf(b, p)
	for _, th := range []float64{5, 20, 80} {
		th := th
		b.Run(fmt.Sprintf("thresh=%g", th), func(b *testing.B) {
			var prec, recall float64
			for i := 0; i < b.N; i++ {
				cfg := kondo.DefaultConfig()
				cfg.Fuzz.Seed = int64(i + 1)
				cfg.Fuzz.MaxEvals = benchBudget
				cfg.Carve.CenterDistThresh = th
				res, err := kondo.Debloat(context.Background(), p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				prec = metrics.Precision(gt, res.Approx)
				recall = metrics.Recall(gt, res.Approx)
			}
			b.ReportMetric(prec, "precision")
			b.ReportMetric(recall, "recall")
		})
	}
}

// --- §V-D6: audit overhead ---

func BenchmarkAuditOverhead(b *testing.B) {
	dir := b.TempDir()
	space := array.MustSpace(128, 128)
	path := filepath.Join(dir, "data.sdf")
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset("data", space, array.LongDouble, []int{16, 16})
	if err != nil {
		b.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 { return 0 }); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	p := workload.MustPRL(128, 128)
	v := []float64{100, 100}

	run := func(ds *sdf.Dataset) error {
		return p.Run(v, &workload.Env{Acc: workload.NewFileAccessor(ds)})
	}
	// ns/op also counts the traced side's resolution; window-ns/op is
	// the open→run→close window the §V-D6 overhead compares.
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			var window time.Duration
			for i := 0; i < b.N; i++ {
				var tr *trace.Tracer
				if traced {
					tr = trace.NewTracer(ioevent.NewStore())
				}
				res, err := trace.Audit(context.Background(), tr, path, "data", run)
				if err != nil {
					b.Fatal(err)
				}
				window += res.Elapsed
			}
			b.ReportMetric(float64(window.Nanoseconds())/float64(b.N), "window-ns/op")
		})
	}
}

// --- Ablation: boundary-based EE vs plain EE (Fig. 4's point) ---

func BenchmarkAblationSchedule(b *testing.B) {
	p := workload.MustCS(5, workload.Default2D)
	gt := truthOf(b, p)
	for _, boundary := range []bool{false, true} {
		boundary := boundary
		name := "plainEE"
		if boundary {
			name = "boundaryEE"
		}
		b.Run(name, func(b *testing.B) {
			var recall float64
			for i := 0; i < b.N; i++ {
				cfg := fuzz.DefaultConfig()
				cfg.Seed = int64(i + 1)
				cfg.MaxEvals = 800
				cfg.Boundary = boundary
				cfg.DecayIter = 50
				cfg.Decay = 0.8
				f, err := fuzz.ForProgram(p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := f.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				recall = metrics.Recall(gt, res.Indices)
			}
			b.ReportMetric(recall, "raw-recall")
		})
	}
}

// --- Ablation: cell-merge carver vs single hull on merged precision ---

func BenchmarkAblationCarver(b *testing.B) {
	p := workload.MustLDC(workload.Default2D, workload.Default2D)
	gt := truthOf(b, p)
	cfg := fuzz.DefaultConfig()
	cfg.Seed = 1
	cfg.MaxEvals = benchBudget
	f, err := fuzz.ForProgram(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	obs, err := f.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bottomUpMerge", func(b *testing.B) {
		var prec float64
		for i := 0; i < b.N; i++ {
			hulls, _, err := carve.CarveStats(context.Background(), obs.Indices, carve.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			approx, _, err := carve.RasterizeStats(context.Background(), hulls, p.Space(), 1)
			if err != nil {
				b.Fatal(err)
			}
			prec = metrics.Precision(gt, approx)
		}
		b.ReportMetric(prec, "precision")
	})
	b.Run("singleHull", func(b *testing.B) {
		var prec float64
		for i := 0; i < b.N; i++ {
			h, err := carve.SimpleConvex(obs.Indices)
			if err != nil {
				b.Fatal(err)
			}
			approx, err := h.RasterizeContext(context.Background(), p.Space())
			if err != nil {
				b.Fatal(err)
			}
			prec = metrics.Precision(gt, approx)
		}
		b.ReportMetric(prec, "precision")
	})
}

// --- Substrate micro-benchmarks ---

// BenchmarkEventStore measures the audit's merging range store, an
// IndexSet of byte runs: ascending inserts that all merge, ascending
// disjoint inserts, and 30,000 disjoint ranges inserted in shuffled
// order, which pays a mid-set splice per insert. The audit's own
// traffic arrives mostly in ascending order.
func BenchmarkEventStore(b *testing.B) {
	b.Run("sequentialMerging", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := ioevent.NewIntervalSet()
			for off := int64(0); off < 10000; off += 10 {
				s.AddRun(off, 10) // all merge into one range
			}
		}
	})
	b.Run("scatteredRanges", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := ioevent.NewIntervalSet()
			for off := int64(0); off < 10000; off += 20 {
				s.AddRun(off, 10) // 500 disjoint ranges
			}
		}
	})
	b.Run("shuffledInsert", func(b *testing.B) {
		offs := rand.New(rand.NewSource(1)).Perm(30000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := ioevent.NewIntervalSet()
			for _, k := range offs {
				s.AddRun(int64(k)*20, 10) // 30,000 disjoint ranges
			}
		}
	})
}

func BenchmarkOffsetResolution(b *testing.B) {
	dir := b.TempDir()
	space := array.MustSpace(256, 256)
	path := filepath.Join(dir, "d.sdf")
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset("data", space, array.Float64, []int{16, 16})
	if err != nil {
		b.Fatal(err)
	}
	if err := dw.Fill(func(array.Index) float64 { return 0 }); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	f, err := sdf.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("data")
	offs := make([]int64, 0, 1024)
	for i := 0; i < 1024; i++ {
		ix, _ := space.Unlinear(int64(i * 61 % int(space.Size())))
		off, err := ds.FileOffset(ix)
		if err != nil {
			b.Fatal(err)
		}
		offs = append(offs, off)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.ResolveOffset(offs[i%len(offs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHyperslabRead(b *testing.B) {
	dir := b.TempDir()
	space := array.MustSpace(256, 256)
	path := filepath.Join(dir, "d.sdf")
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset("data", space, array.Float64, []int{32, 32})
	if err != nil {
		b.Fatal(err)
	}
	if err := dw.Fill(func(array.Index) float64 { return 1 }); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	f, err := sdf.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("data")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.ReadHyperslab(sdf.Slab([]int{64, 64}, []int{64, 64})); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCarve(b *testing.B) {
	p := workload.MustCS(2, workload.Default2D)
	cfg := fuzz.DefaultConfig()
	cfg.Seed = 1
	cfg.MaxEvals = benchBudget
	f, err := fuzz.ForProgram(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	obs, err := f.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := carve.CarveStats(context.Background(), obs.Indices, carve.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// carveBenchField builds a many-hull blob field (the regime the
// candidate-pair engine targets); see the carve bench experiment.
func carveBenchField(b *testing.B, side int) *array.IndexSet {
	b.Helper()
	space := array.MustSpace(side, side)
	cfg := carve.DefaultConfig()
	set := array.NewIndexSet(space)
	for r := cfg.CellSize; r+2*cfg.CellSize < side; r += 96 {
		for c := cfg.CellSize; c+2*cfg.CellSize < side; c += 96 {
			for _, off := range [][2]int{{0, 0}, {cfg.CellSize, 0}, {0, cfg.CellSize}} {
				for dr := 0; dr < 3; dr++ {
					for dc := 0; dc < 3; dc++ {
						if _, err := set.Add(array.NewIndex(r+off[0]+dr*5, c+off[1]+dc*5)); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		}
	}
	return set
}

// BenchmarkCarveEngine and BenchmarkCarveNaive measure the
// candidate-pair merge engine against the retained one-merge-per-pass
// reference on the same many-hull field; compare the two for the
// engine's wall-clock speedup.
func BenchmarkCarveEngine(b *testing.B) {
	set := carveBenchField(b, 800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := carve.CarveStats(context.Background(), set, carve.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCarveNaive(b *testing.B) {
	set := carveBenchField(b, 800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := carve.CarveNaive(set, carve.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFuzzCampaign(b *testing.B) {
	p := workload.MustCS(2, workload.Default2D)
	for i := 0; i < b.N; i++ {
		cfg := fuzz.DefaultConfig()
		cfg.Seed = int64(i + 1)
		cfg.MaxEvals = benchBudget
		f, err := fuzz.ForProgram(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMain keeps the benchmark binary from accidentally inheriting a
// polluted working directory for relative paths.
func TestMain(m *testing.M) {
	os.Exit(m.Run())
}

// BenchmarkExperimentHarness runs the full quick experiment suite once
// per iteration — a one-stop regeneration of every table and figure.
func BenchmarkExperimentHarness(b *testing.B) {
	for _, id := range bench.Experiments() {
		id := id
		b.Run(id, func(b *testing.B) {
			opts := bench.QuickOptions()
			for i := 0; i < b.N; i++ {
				if _, err := bench.Run(context.Background(), id, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §VI: recovery throughput over the data plane ---

// BenchmarkRecoveryThroughput measures the missing-data recovery path
// end-to-end over loopback HTTP: a debloated ARD file whose accessed
// region was carved away recovers it from the origin server through
// the chunk-granular caching fetcher. Reported metrics: recovered
// elements per second, runtime misses per run (the round trips a
// one-element-per-request protocol would make), HTTP round trips per
// run, and the fetcher's cache hit rate.
func BenchmarkRecoveryThroughput(b *testing.B) {
	ard, err := workload.NewARD(48, 64, 32, 4, 16, 3, 8)
	if err != nil {
		b.Fatal(err)
	}
	space := ard.Space()
	dir := b.TempDir()
	origin := filepath.Join(dir, "origin.sdf")
	w := sdf.NewWriter(origin)
	dw, err := w.CreateDataset("data", space, array.Float64, []int{8, 8, 8})
	if err != nil {
		b.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin) * 0.5
	}); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}

	// Keep only the first 8 time planes; the benchmarked slab reads
	// plane 20, so every element misses locally.
	keep := array.NewIndexSet(space)
	space.Each(func(ix array.Index) bool {
		if ix[2] < 8 {
			keep.Add(ix)
		}
		return true
	})
	deb := filepath.Join(dir, "deb.sdf")
	if _, err := debloat.WriteSubset(origin, deb, "data", keep, []int{8, 8, 8}); err != nil {
		b.Fatal(err)
	}

	srv, err := dataserve.NewServer(origin)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	f, err := sdf.Open(deb)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ds, err := f.Dataset("data")
	if err != nil {
		b.Fatal(err)
	}

	const slabElems = 16 * 8 // the recovered region per iteration
	of, err := sdf.Open(origin)
	if err != nil {
		b.Fatal(err)
	}
	defer of.Close()
	ods, err := of.Dataset("data")
	if err != nil {
		b.Fatal(err)
	}
	want, err := ods.ReadHyperslab(sdf.Slab([]int{0, 0, 20}, []int{16, 8, 1}))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cached", func(b *testing.B) {
		fetcher := dataserve.NewFetcherConfig(ts.URL, nil, dataserve.FetcherConfig{})
		var misses int64
		var vals []float64
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			rt := debloat.NewRuntimeContext(context.Background(), ds, fetcher)
			got, err := rt.ReadSlab([]int{0, 0, 20}, []int{16, 8, 1})
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != slabElems || rt.Misses() == 0 {
				b.Fatalf("run recovered %d values with %d misses", len(got), rt.Misses())
			}
			misses += rt.Misses()
			vals = got
		}
		elapsed := time.Since(start).Seconds()
		for i := range want {
			if math.Float64bits(vals[i]) != math.Float64bits(want[i]) {
				b.Fatalf("value %d: recovered %v, origin %v", i, vals[i], want[i])
			}
		}
		st := fetcher.Stats()
		b.ReportMetric(float64(slabElems*b.N)/elapsed, "elems/s")
		b.ReportMetric(float64(misses)/float64(b.N), "misses/run")
		b.ReportMetric(float64(st.RoundTrips)/float64(b.N), "round-trips/run")
		b.ReportMetric(100*st.HitRate(), "%cache-hit")
	})
	// The overhead guard for the observability layer: the same cached
	// recovery path with a live trace and metrics registry in the
	// context. Compare elems/s against "cached" above — with tracing
	// only on the miss path, the gap must stay within noise (≤2%).
	b.Run("cached+traced", func(b *testing.B) {
		fetcher := dataserve.NewFetcherConfig(ts.URL, nil, dataserve.FetcherConfig{})
		tr := kobs.NewTrace()
		reg := kobs.NewRegistry()
		fetcher.Register(reg)
		ctx := kobs.WithRegistry(kobs.WithTrace(context.Background(), tr), reg)
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			rt := debloat.NewRuntimeContext(ctx, ds, fetcher)
			vals, err := rt.ReadSlab([]int{0, 0, 20}, []int{16, 8, 1})
			if err != nil {
				b.Fatal(err)
			}
			if len(vals) != slabElems || rt.Misses() == 0 {
				b.Fatalf("run recovered %d values with %d misses", len(vals), rt.Misses())
			}
		}
		elapsed := time.Since(start).Seconds()
		b.ReportMetric(float64(slabElems*b.N)/elapsed, "elems/s")
		b.ReportMetric(float64(tr.Len())/float64(b.N), "trace-events/run")
	})
}
