package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/array"
	"repro/internal/carve"
	"repro/internal/debloat"
	"repro/internal/fuzz"
	"repro/internal/ioevent"
	"repro/internal/kondo"
	"repro/internal/metrics"
	"repro/internal/sdf"
	"repro/internal/trace"
	"repro/internal/workload"
)

const dataset = "data"

// fill is every origin file's value at ix: its linear index, exact in
// float64 and long double, so outputs are checked without a second
// read of the origin.
func fill(space array.Space, ix array.Index) float64 {
	lin, _ := space.Linear(ix)
	return float64(lin)
}

// writeOrigin writes a chunked origin file holding fill.
func writeOrigin(path string, space array.Space, dt array.DType, chunk []int) error {
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset(dataset, space, dt, chunk)
	if err != nil {
		return err
	}
	if err := dw.Fill(func(ix array.Index) float64 { return fill(space, ix) }); err != nil {
		return err
	}
	return w.Close()
}

// pipeline is a workload whose op is one debloat: a fuzz campaign,
// carve and raster, and, when it has an origin file, the debloated
// write and a Merkle-rooted manifest.
type pipeline struct {
	prog    workload.Program
	cfg     kondo.Config
	seed    int64
	dtype   array.DType
	chunk   []int // debloat chunk; nil when the op writes no file
	audited bool  // each test is an audited run over the origin file

	origin, out, manifest string

	truth   *array.IndexSet
	rootHex string // the origin's Merkle root, for checking manifests

	// tamper, when set, damages the debloated file before its check.
	tamper func(path string, approx *array.IndexSet) error
}

func newPipeline(prog workload.Program, tests int, dt array.DType, chunk []int, audited bool, seed int64, dir string) *pipeline {
	cfg := kondo.DefaultConfig()
	cfg.Fuzz.MaxEvals = tests
	cfg.Fuzz.Workers = workers
	cfg.Carve.Workers = workers
	return &pipeline{
		prog: prog, cfg: cfg, seed: seed, dtype: dt, chunk: chunk, audited: audited,
		origin:   filepath.Join(dir, "origin.sdf"),
		out:      filepath.Join(dir, "debloated.sdf"),
		manifest: filepath.Join(dir, "manifest.json"),
	}
}

// fixBudget turns the campaign's idle stop off, so the test budget
// alone ends it and an op does the same amount of work at every seed.
func (w *pipeline) fixBudget() {
	w.cfg.Fuzz.StopIter = 0
	w.cfg.Fuzz.MaxIter = w.cfg.Fuzz.MaxEvals
}

// setup writes the origin file and computes the analytic I_Θ.
func (w *pipeline) setup() error {
	if w.chunk != nil {
		if err := writeOrigin(w.origin, w.prog.Space(), w.dtype, w.chunk); err != nil {
			return fmt.Errorf("writing origin: %w", err)
		}
	}
	truth, err := workload.GroundTruth(w.prog)
	if err != nil {
		return err
	}
	w.truth = truth
	return nil
}

// prepareChecks computes the origin's Merkle root once per run, outside
// set-up and the timed window.
func (w *pipeline) prepareChecks() error {
	if w.chunk == nil {
		return nil
	}
	f, err := sdf.Open(w.origin)
	if err != nil {
		return err
	}
	defer f.Close()
	ds, err := f.Dataset(dataset)
	if err != nil {
		return err
	}
	tree, err := sdf.BuildDatasetMerkle(ds, sdf.ServingChunk(ds))
	if err != nil {
		return err
	}
	w.rootHex = tree.SpecOf(ds).RootHex()
	return nil
}

func (w *pipeline) close() {}

// op runs one debloat. Untraced it calls the library entry points a
// user calls (kondo.Debloat / kondo.DebloatWithEvaluator); traced it
// calls the stages those run, one span each. Every op runs its own
// campaign, so a run's median spans several campaigns of its seed.
func (w *pipeline) op(i int, rec *recorder) (*opOut, error) {
	ctx := context.Background()
	cfg := w.cfg
	cfg.Fuzz.Seed = w.seed*1_000_003 + int64(i)
	out := newOpOut()
	root := rec.start("op", i, nil)
	defer root.end()

	var stageSpan *span // the fuzz.run span evaluators nest under
	var indices, events atomic.Int64
	eval := func(v []float64) (*array.IndexSet, error) {
		s := rec.start("workload.eval", i, stageSpan)
		var set *array.IndexSet
		var err error
		if w.audited {
			var n int64
			set, n, err = w.audit(v, rec, i, s)
			events.Add(n)
		} else {
			set, err = workload.RunOnVirtual(w.prog, v)
		}
		s.end()
		if set != nil {
			indices.Add(int64(set.Len()))
		}
		return set, err
	}

	var res *kondo.Result
	var err error
	switch {
	case rec == nil && w.audited:
		res, err = kondo.DebloatWithEvaluator(ctx, w.prog.Params(), w.prog.Space(), eval, cfg)
	case rec == nil:
		res, err = kondo.Debloat(ctx, w.prog, cfg)
	default:
		res, err = w.stages(ctx, cfg, rec, i, root, &stageSpan, eval, out)
	}
	if err != nil {
		return nil, err
	}
	out.res = res
	out.counts["fuzz.tests"] = float64(res.Fuzz.Evaluations)
	out.counts["fuzz.observed_indices"] = float64(res.Fuzz.Indices.Len())
	out.counts["carve.final_hulls"] = float64(res.CarveStats.FinalHulls)
	out.counts["carve.pair_tests"] = float64(res.CarveStats.PairTests)
	out.counts["ioevent.events"] = float64(events.Load())
	out.layer["workload.indices_per_eval"] = float64(indices.Load()) / float64(max(res.Fuzz.Evaluations, 1))

	if w.chunk == nil {
		out.counts["debloat.kept_chunks"] = 0
		return out, nil
	}
	ws := rec.start("debloat.write", i, root)
	stats, err := debloat.WriteSubset(w.origin, w.out, dataset, res.Approx, w.chunk)
	ws.end()
	if err != nil {
		return nil, err
	}
	ms := rec.start("debloat.manifest", i, root)
	m := debloat.NewManifest(w.prog.Name(), dataset, w.prog.Space().Dims(), "chunk", w.chunk,
		res.Hulls, stats, res.Fuzz.Evaluations)
	mk := rec.start("debloat.merkle", i, ms)
	err = m.EmbedMerkle(w.origin)
	mk.end()
	if err == nil {
		err = m.Save(w.manifest)
	}
	ms.end()
	if err != nil {
		return nil, err
	}
	out.stats = stats
	out.counts["debloat.kept_chunks"] = float64(stats.KeptChunks)
	out.layer["debloat.total_chunks"] = float64(stats.TotalChunks)
	out.layer["debloat.write_mib"] = float64(stats.DebloatedBytes) / (1 << 20)
	if mk != nil {
		out.layer["debloat.merkle_mib_per_s"] = float64(stats.OriginalBytes) / (1 << 20) /
			(float64(mk.End-mk.Start) / 1e9)
	}
	return out, nil
}

// stages is the traced pipeline: the calls internal/kondo makes, each
// under its own span, with allocation deltas read around them.
func (w *pipeline) stages(ctx context.Context, cfg kondo.Config, rec *recorder, i int, root *span, stageSpan **span,
	eval fuzz.Evaluator, out *opOut) (*kondo.Result, error) {

	f, err := fuzz.New(w.prog.Params(), w.prog.Space(), eval, cfg.Fuzz)
	if err != nil {
		return nil, err
	}
	a0 := heapAllocBytes()
	*stageSpan = rec.start("fuzz.run", i, root)
	fres, err := f.Run(ctx)
	(*stageSpan).end()
	a1 := heapAllocBytes()
	if err != nil {
		return nil, err
	}
	cs := rec.start("carve.carve", i, root)
	hulls, cstats, err := carve.CarveStats(ctx, fres.Indices, cfg.Carve)
	cs.end()
	a2 := heapAllocBytes()
	if err != nil {
		return nil, err
	}
	rs := rec.start("carve.raster", i, root)
	approx, rstats, err := carve.RasterizeStats(ctx, hulls, w.prog.Space(), cfg.Carve.Workers)
	rs.end()
	if err != nil {
		return nil, err
	}
	fs := *stageSpan
	res := &kondo.Result{
		Fuzz: fres, Hulls: hulls, Approx: approx, CarveStats: cstats,
		FuzzTime:  time.Duration(fs.End - fs.Start),
		CarveTime: time.Duration(rs.End - cs.Start),
	}
	l := out.layer
	l["fuzz.batches"] = float64(fres.Batches)
	l["fuzz.useful_ratio"] = float64(fres.Useful) / float64(max(fres.Evaluations, 1))
	l["fuzz.dedup_skips"] = float64(fres.DedupSkips)
	l["fuzz.alloc_mib"] = float64(a1-a0) / (1 << 20)
	l["carve.cells"] = float64(cstats.Cells)
	l["carve.merge_passes"] = float64(cstats.MergePasses)
	l["carve.prune_hits"] = float64(cstats.PruneHits)
	l["carve.alloc_mib"] = float64(a2-a1) / (1 << 20)
	l["carve.raster_point_tests"] = float64(rstats.PointTests)
	l["carve.kept_indices"] = float64(approx.Len())
	l["carve.waste_ratio"] = res.WasteRatio()
	return res, nil
}

// audit is one audited debloat test (the layout of the §V-D6 audit
// bench): a fresh event store and tracer, a traced open, the program
// over the file, and resolution of the recorded events into I_v. It
// returns I_v and the number of events recorded. Traced, the tracer's
// file is wrapped so each ReadAt is folded into the span issuing it.
func (w *pipeline) audit(v []float64, rec *recorder, i int, parent *span) (*array.IndexSet, int64, error) {
	store := ioevent.NewStore()
	tr := trace.NewTracer(store)
	ops := rec.start("trace.open", i, parent)
	tf, err := tr.Open(tr.NewProcess(), w.origin)
	if err != nil {
		return nil, 0, err
	}
	var src sdf.ByteSource = tf
	timed := &timedSource{src: tf, cur: ops}
	if rec != nil {
		src = timed
	}
	f, err := sdf.OpenFrom(src)
	if err != nil {
		tf.Close()
		return nil, 0, err
	}
	ds, err := f.Dataset(dataset)
	ops.end()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	rs := rec.start("sdf.run", i, parent)
	timed.cur = rs
	err = w.prog.Run(v, &workload.Env{Acc: workload.NewFileAccessor(ds)})
	rs.end()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	res := rec.start("trace.resolve", i, parent)
	set, err := trace.AccessedIndices(store, tf.Name(), ds)
	res.end()
	return set, store.Events(), err
}

// timedSource times each ReadAt of a traced file and folds it into the
// current span.
type timedSource struct {
	src sdf.ByteSource
	cur *span
}

func (t *timedSource) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := t.src.ReadAt(p, off)
	t.cur.addCall(time.Since(start), int64(n))
	return n, err
}

func (t *timedSource) Close() error { return t.src.Close() }

// check verifies one op's outputs and scores them against I_Θ. It runs
// outside the timed window.
func (w *pipeline) check(out *opOut) error {
	res := out.res
	if res.Approx == nil || res.Approx.Empty() {
		return errors.New("empty approximation")
	}
	pr := metrics.Evaluate(w.truth, res.Approx)
	out.quality = map[string]float64{
		"recall":        pr.Recall,
		"precision":     pr.Precision,
		"kept_fraction": float64(res.Approx.Len()) / float64(w.prog.Space().Size()),
	}
	if w.chunk == nil {
		return nil
	}
	out.quality["kept_fraction"] = float64(out.stats.DebloatedBytes) / float64(out.stats.OriginalBytes)
	if w.tamper != nil {
		if err := w.tamper(w.out, res.Approx); err != nil {
			return err
		}
	}
	if err := checkDebloated(w.out, res.Approx, w.chunk, out.stats.KeptChunks); err != nil {
		return err
	}
	m, err := debloat.LoadManifest(w.manifest)
	if err != nil {
		return err
	}
	if _, err := m.MerkleSpec(); err != nil {
		return err
	}
	if m.Merkle == nil || m.Merkle.Root != w.rootHex {
		return fmt.Errorf("manifest merkle root does not match the origin's %s", w.rootHex)
	}
	return nil
}

// checkDebloated checks that a debloated file returns the fill value at
// every index of I'_Θ, keeps exactly the chunks holding one, and raises
// sdf.ErrDataMissing for every other chunk.
func checkDebloated(path string, approx *array.IndexSet, chunk []int, wantKept int64) error {
	f, err := sdf.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ds, err := f.Dataset(dataset)
	if err != nil {
		return err
	}
	space := ds.Space()
	grid := ds.ChunkLayout()
	if grid == nil {
		return errors.New("debloated dataset is not chunked")
	}
	type slab struct {
		start, count []int
		vals         []float64
	}
	kept := make(map[int64]*slab)
	var bad error
	approx.Each(func(ix array.Index) bool {
		cc, _, err := grid.ChunkCoord(ix)
		if err == nil {
			var lin int64
			lin, err = grid.ChunkLinear(cc)
			if err == nil && kept[lin] == nil {
				s := &slab{}
				s.start, s.count = sdf.ChunkSlab(space, chunk, cc)
				s.vals, err = ds.ReadHyperslab(sdf.Slab(s.start, s.count))
				kept[lin] = s
			}
			if err == nil {
				s := kept[lin]
				pos := 0
				for k := range ix {
					pos = pos*s.count[k] + ix[k] - s.start[k]
				}
				if got, want := s.vals[pos], fill(space, ix); got != want {
					err = fmt.Errorf("debloated value at %v is %v, want %v", ix, got, want)
				}
			}
		}
		bad = err
		return err == nil
	})
	if bad != nil {
		return bad
	}
	if int64(len(kept)) != wantKept {
		return fmt.Errorf("debloated file keeps %d chunks, I'_Θ touches %d", wantKept, len(kept))
	}
	for lin := int64(0); lin < grid.NumChunks(); lin++ {
		if kept[lin] != nil {
			continue
		}
		cc, err := grid.Grid().Unlinear(lin)
		if err != nil {
			return err
		}
		corner := make(array.Index, len(cc))
		for k := range cc {
			corner[k] = cc[k] * chunk[k]
		}
		if _, err := ds.ReadElement(corner); !errors.Is(err, sdf.ErrDataMissing) {
			return fmt.Errorf("dropped chunk %v read gave %v, want sdf.ErrDataMissing", cc, err)
		}
	}
	return nil
}

// flipKeptByte flips one byte of the first kept element of a debloated
// file: a planted fault the checks must catch.
func flipKeptByte(path string, approx *array.IndexSet) error {
	var first array.Index
	approx.Each(func(ix array.Index) bool {
		first = append(array.Index(nil), ix...)
		return false
	})
	if first == nil {
		return errors.New("no kept element to damage")
	}
	return flipByte(path, first)
}

// flipByte flips one byte of the stored value at ix in a file's
// dataset, in place.
func flipByte(path string, ix array.Index) error {
	f, err := sdf.Open(path)
	if err != nil {
		return err
	}
	ds, err := f.Dataset(dataset)
	if err != nil {
		f.Close()
		return err
	}
	off, err := ds.FileOffset(ix)
	f.Close()
	if err != nil {
		return fmt.Errorf("locating %v: %w", ix, err)
	}
	fh, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer fh.Close()
	b := make([]byte, 1)
	// Byte 6 of a stored float64 or long double holds high mantissa
	// bits, so flipping it always changes the value.
	if _, err := fh.ReadAt(b, off+6); err != nil {
		return err
	}
	b[0] ^= 0xFF
	if _, err := fh.WriteAt(b, off+6); err != nil {
		return err
	}
	return fh.Close()
}

// auditBaseline replays a campaign's tests over the origin file twice
// per round, once untraced through sdf.Open and once audited the way a
// debloat test is (without resolving events), and returns the median
// over rounds of the audit's relative overhead and its cost per
// recorded event.
func (w *pipeline) auditBaseline(seeds [][]float64) (ratio, nsPerEvent float64, err error) {
	replay := func(audited bool) (time.Duration, int64, error) {
		var events int64
		start := time.Now()
		for _, v := range seeds {
			var f *sdf.File
			var store *ioevent.Store
			if audited {
				store = ioevent.NewStore()
				tr := trace.NewTracer(store)
				tf, err := tr.Open(tr.NewProcess(), w.origin)
				if err != nil {
					return 0, 0, err
				}
				if f, err = sdf.OpenFrom(tf); err != nil {
					tf.Close()
					return 0, 0, err
				}
			} else {
				var err error
				if f, err = sdf.Open(w.origin); err != nil {
					return 0, 0, err
				}
			}
			ds, err := f.Dataset(dataset)
			if err == nil {
				err = w.prog.Run(v, &workload.Env{Acc: workload.NewFileAccessor(ds)})
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return 0, 0, err
			}
			if store != nil {
				events += store.Events()
			}
		}
		return time.Since(start), events, nil
	}
	var ratios, perEvent []float64
	for round := 0; round < 3; round++ {
		plain, _, err := replay(false)
		if err != nil {
			return 0, 0, err
		}
		audited, events, err := replay(true)
		if err != nil {
			return 0, 0, err
		}
		extra := float64(audited - plain)
		ratios = append(ratios, extra/float64(plain))
		perEvent = append(perEvent, extra/float64(max(events, 1)))
	}
	return median(ratios), median(perEvent), nil
}
