// Command perfbench is the repository's benchmark. It runs one of four
// workloads, each putting a different layer of the Kondo pipeline in
// the blocking path, for a fixed measuring time in one process and a
// closed loop, checks every op's output, and prints one JSON result as
// the last line of standard output:
//
//	perfbench --workload ard-virtual --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 is a separate run
// that records spans around the calls into each module and reports the
// per-layer metrics instead. README.md says why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/array"
	"repro/internal/debloat"
	"repro/internal/kondo"
	"repro/internal/workload"
)

// workers is the size of the fuzz and carve pools in every workload,
// so results do not depend on the host's CPU count.
const workers = 2

// maxResidualShare is the share of traced op time the layer spans may
// leave unaccounted.
const maxResidualShare = 0.02

var workloadNames = []string{"ard-virtual", "ldc-audited", "msi-file", "prl-recover"}

// opOut is what one op hands to its check and to the run's metrics.
type opOut struct {
	res     *kondo.Result
	stats   debloat.Stats
	reads   []slabRead
	counts  map[string]float64 // exact counts that must repeat run to run
	layer   map[string]float64 // per-layer values of a traced op
	quality map[string]float64 // recall, precision, kept_fraction
}

func newOpOut() *opOut {
	return &opOut{counts: map[string]float64{}, layer: map[string]float64{}}
}

// bench is one workload.
type bench interface {
	// setup builds the inputs; it is timed as setup_s.
	setup() error
	// prepareChecks computes what checks need, once per run, untimed.
	prepareChecks() error
	// op runs op i; rec is nil when the op is not traced. A pipeline
	// op's campaign seed derives from the run seed and i.
	op(i int, rec *recorder) (*opOut, error)
	// check verifies an op's outputs, outside the timed window.
	check(out *opOut) error
	close()
}

// shape fixes how a workload's run loops.
type shape struct {
	// A run sets up at least setups times and until its set-ups have
	// taken setupMS in all, so a short set-up is timed many times.
	setups, setupMS int
	// minOps is the least number of measured ops, whatever --seconds
	// says. A workload that accumulates counts reports them per op over
	// its first minOps ops.
	minOps int
	// pipeline marks a debloat workload. Each of its ops runs its own
	// campaign; a traced run runs every campaign twice, untraced and
	// then traced, and collects garbage before each op, outside the
	// timed window, so every op starts from a collected heap.
	pipeline bool
	// clockEvery is how many ops pass between two measurements of the
	// clock rate.
	clockEvery int
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	small    bool // reduced sizes, for the tests
	dir      string
	spans    string // where a traced run writes its spans; empty for nowhere
	tamper   bool   // flip a kept byte of each debloated file
}

// newBench builds the named workload at full or reduced size.
func newBench(o options, rec *recorder) (bench, shape, error) {
	pick := func(full, small int) int {
		if o.small {
			return small
		}
		return full
	}
	var p *pipeline
	sh := shape{setups: pick(5, 1), setupMS: pick(2000, 0), minOps: pick(4, 2), pipeline: true, clockEvery: 1}
	switch o.workload {
	case "ard-virtual":
		prog := workload.DefaultARD()
		if o.small {
			var err error
			if prog, err = workload.NewARD(48, 72, 64, 3, 15, 2, 6); err != nil {
				return nil, sh, err
			}
		}
		p = newPipeline(prog, pick(ardTests, 300), 0, nil, false, o.seed, o.dir)
		p.fixBudget()
	case "ldc-audited":
		n := pick(512, 64)
		prog, err := workload.NewLDC(n, n)
		if err != nil {
			return nil, sh, err
		}
		p = newPipeline(prog, pick(ldcTests, 100), array.LongDouble, []int{16, 16}, true, o.seed, o.dir)
		p.fixBudget()
	case "msi-file":
		prog := workload.DefaultMSI()
		if o.small {
			var err error
			if prog, err = workload.NewMSI(25, 33, 130, 10, 14); err != nil {
				return nil, sh, err
			}
		}
		p = newPipeline(prog, pick(2000, 300), array.Float64, []int{16, 16, 16}, false, o.seed, o.dir)
	case "prl-recover":
		r, err := newRecovery(pick(512, 64), pick(4096, 256), pick(1000, 200), o.seed, o.dir, rec)
		if err != nil {
			return nil, sh, err
		}
		r.tamper = o.tamper
		sh.minOps, sh.pipeline, sh.clockEvery = pick(1000, 40), false, 64
		return r, sh, nil
	default:
		return nil, sh, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.tamper {
		p.tamper = flipKeptByte
	}
	return p, sh, nil
}

// Test budgets per op of the two pipelines whose campaign cost depends
// most on the campaign: small enough that a run spans many campaigns.
const (
	ardTests = 500
	ldcTests = 432
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's JSON line plus what the tests inspect.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	counts map[string]float64
}

// opSummary keeps the scalars of one measured op; results are dropped
// so held memory does not grow with the op count.
type opSummary struct {
	id       int     // the op index passed to op, which keys its spans
	ms       float64 // wall time
	cpuMS    float64 // CPU time of the process, user and system
	traced   bool
	evals    int
	fuzzTime time.Duration
	quality  map[string]float64
	layer    map[string]float64
}

// run sets the workload up, warms it, measures it and reports. Lines
// before the result go to log.
func run(o options, log io.Writer) (*result, error) {
	var rec *recorder
	if o.traced {
		rec = &recorder{}
	}
	b, sh, err := newBench(o, rec)
	if err != nil {
		return nil, err
	}
	var setupS []float64 // CPU seconds of each set-up
	var hz []float64     // the clock rate, measured before each set-up and between ops
	var setupTotal time.Duration
	for k := 0; k < sh.setups || setupTotal < time.Duration(sh.setupMS)*time.Millisecond; k++ {
		if k > 0 {
			b.close()
		}
		runtime.GC()
		hz = append(hz, clockHz())
		start, cpu := time.Now(), cpuTime()
		err := b.setup()
		setupS = append(setupS, (cpuTime() - cpu).Seconds())
		setupTotal += time.Since(start)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer b.close()
	if err := b.prepareChecks(); err != nil {
		return nil, fmt.Errorf("preparing checks: %w", err)
	}

	res := &result{Metrics: map[string]metric{}, counts: map[string]float64{}}
	var untracedCounts map[string]float64 // of the campaign a traced op repeats
	runOp := func(i int, r *recorder) (d, cpu time.Duration, out *opOut, ok bool) {
		if sh.pipeline {
			runtime.GC()
		}
		if i%sh.clockEvery == 0 {
			hz = append(hz, clockHz())
		}
		start, cpu0 := time.Now(), cpuTime()
		out, err := b.op(i, r)
		d, cpu = time.Since(start), cpuTime()-cpu0
		res.Attempted++
		if err == nil {
			err = b.check(out)
		}
		if err == nil && r != nil && untracedCounts != nil && !sameCounts(untracedCounts, out.counts) {
			err = fmt.Errorf("traced op %d counts %v differ from the untraced run's %v", i, out.counts, untracedCounts)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", o.workload, i, err)
			return d, cpu, nil, false
		}
		return d, cpu, out, true
	}

	runOp(-1, nil) // warm-up, discarded
	var base map[string]float64
	if c, ok := b.(counter); ok {
		base = c.counters()
	}
	var ops []opSummary
	var seeds [][]float64
	var elapsed time.Duration
	paired := o.traced && sh.pipeline
	for i := 0; elapsed.Seconds() < o.seconds || i < sh.minOps || paired && i%2 == 1; i++ {
		// A traced run alternates untraced and traced ops, so it also
		// measures what tracing costs; a pipeline runs each campaign
		// once each way.
		var r *recorder
		id := i
		if o.traced && i%2 == 1 {
			r = rec
		}
		if paired {
			id = i / 2
		}
		d, cpu, out, ok := runOp(id, r)
		elapsed += d
		s := opSummary{id: id, ms: float64(d) / 1e6, cpuMS: float64(cpu) / 1e6, traced: r != nil}
		untracedCounts = nil
		if ok {
			if paired && r == nil {
				untracedCounts = out.counts
			}
			if i == 0 {
				for k, v := range out.counts {
					res.counts[k] = v
				}
			}
			s.quality, s.layer = out.quality, out.layer
			if out.res != nil {
				s.evals, s.fuzzTime = out.res.Fuzz.Evaluations, out.res.FuzzTime
				if seeds == nil {
					for _, sr := range out.res.Fuzz.Seeds {
						seeds = append(seeds, sr.V)
					}
				}
			}
		}
		ops = append(ops, s)
		if c, ok := b.(counter); ok && i+1 == sh.minOps {
			for k, v := range c.counters() {
				res.counts[k] = (v - base[k]) / float64(sh.minOps)
			}
		}
	}

	fmt.Fprintf(log, "env %s\n", envLine(o, median(hz)))
	fmt.Fprintf(log, "set up %d times in %.3f s wall, median %.4f CPU s\n", len(setupS), setupTotal.Seconds(), median(setupS))
	accounted := true
	if o.traced {
		if err := rec.link(); err != nil {
			return nil, err
		}
		if o.spans != "" {
			if err := rec.write(o.spans); err != nil {
				return nil, err
			}
			fmt.Fprintf(log, "spans written to %s\n", o.spans)
		}
		if share := layerMetrics(res, rec, ops, log); share > maxResidualShare {
			accounted = false
			fmt.Fprintf(os.Stderr, "perfbench: %s layer spans leave %.3f%% of traced op time unaccounted, more than the allowed %.0f%%\n",
				o.workload, 100*share, 100*maxResidualShare)
		}
		if a, ok := b.(*pipeline); ok && a.audited && seeds != nil {
			ratio, nsPerEvent, err := a.auditBaseline(seeds)
			if err != nil {
				return nil, fmt.Errorf("audit baseline: %w", err)
			}
			res.Metrics["trace.overhead_ratio"] = metric{ratio, "ratio"}
			res.Metrics["trace.ns_per_event"] = metric{nsPerEvent, "ns"}
			fmt.Fprintf(log, "audit overhead %.1f%% over %d replayed tests, %.0f ns per event (paper §V-D6: ~31%%; full_bench_results.txt: 44.7%%)\n",
				100*ratio, len(seeds), nsPerEvent)
		}
		// Report exactly the per-layer list; a layer the workload does
		// not run reads 0.
		all := make(map[string]metric, len(perLayerNames))
		for _, name := range perLayerNames {
			all[name] = metric{res.Metrics[name].Value, perLayerUnit(name)}
		}
		res.Metrics = all
	} else {
		endToEnd(res, setupS, ops, median(hz), log)
	}
	res.Correct = res.Failed == 0 && accounted
	return res, nil
}

// counter is a workload whose exact counts accumulate across ops.
type counter interface {
	counters() map[string]float64
}

func sameCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// endToEnd fills the untraced run's metrics. Times are CPU times of
// the process, user and system, scaled from the run's clock rate hz to
// nominalHz. On a shared host the wall time of identical work moves
// with the time the host takes the CPUs away, which CPU time leaves
// out, and its CPU time moves with the clock the host gives the cores,
// which the scaling takes out (README.md, Steadiness). The unscaled and
// wall-clock figures and the tail go to log, not to metrics.
func endToEnd(res *result, setupS []float64, ops []opSummary, hz float64, log io.Writer) {
	var ms, cpuMS []float64
	var opTime float64
	var evals int
	var fuzzTime time.Duration
	quality := map[string][]float64{}
	for _, s := range ops {
		ms = append(ms, s.ms)
		cpuMS = append(cpuMS, s.cpuMS)
		opTime += s.ms / 1e3
		evals += s.evals
		fuzzTime += s.fuzzTime
		for k, v := range s.quality {
			quality[k] = append(quality[k], v)
		}
	}
	scale := hz / nominalHz
	m := res.Metrics
	m["setup_s"] = metric{median(setupS) * scale, "s"}
	m["op_cpu_ms_p50"] = metric{median(cpuMS) * scale, "ms"}
	for _, k := range []string{"recall", "precision", "kept_fraction"} {
		m[k] = metric{median(quality[k]), "fraction"}
	}
	if mem, err := peakRSSMiB(); err == nil {
		m["mem_mib_peak"] = metric{mem, "MiB"}
	}
	fmt.Fprintf(log, "over %d ops at %.3f GHz: unscaled setup_s %.4f, op_cpu_ms_p50 %.3f, op_cpu_ms_p99 %.3f; "+
		"wall op_ms_p50 %.3f, op_ms_p99 %.3f, ops per second %.3f",
		len(ms), hz/1e9, median(setupS), median(cpuMS), nearestRank(cpuMS, 0.99),
		median(ms), nearestRank(ms, 0.99), float64(len(ms))/opTime)
	if fuzzTime > 0 {
		fmt.Fprintf(log, ", campaign tests per second %.1f", float64(evals)/fuzzTime.Seconds())
	}
	fmt.Fprintln(log)
}

// selfLayers are the span names whose self time the traced run
// reports, in pipeline order; "residual" is the root's own time.
var selfLayers = []string{
	"workload.eval", "trace.open", "trace.read", "sdf.run", "trace.resolve", "fuzz.run",
	"carve.carve", "carve.raster", "debloat.write", "debloat.manifest", "debloat.merkle",
	"debloat.read", "dataserve.hit", "dataserve.miss", "serve.request", "residual",
}

// perLayerNames lists every per-layer metric; a layer a workload does
// not run reports 0.
var perLayerNames = func() []string {
	names := []string{
		"workload.eval_ms", "workload.evals", "workload.indices_per_eval",
		"trace.open_ms", "trace.read_ms", "trace.reads", "trace.read_mib", "ioevent.events",
		"trace.ns_per_event", "trace.resolve_ms", "sdf.read_self_ms", "trace.overhead_ratio",
		"fuzz.run_ms", "fuzz.self_ms", "fuzz.worker_busy", "fuzz.tests", "fuzz.batches",
		"fuzz.useful_ratio", "fuzz.dedup_skips", "fuzz.observed_indices", "fuzz.alloc_mib",
		"carve.carve_ms", "carve.cells", "carve.final_hulls", "carve.merge_passes",
		"carve.pair_tests", "carve.prune_hits", "carve.alloc_mib",
		"carve.raster_ms", "carve.raster_point_tests", "carve.kept_indices", "carve.waste_ratio",
		"debloat.write_ms", "debloat.write_mib", "debloat.kept_chunks", "debloat.total_chunks",
		"debloat.manifest_ms", "debloat.merkle_mib_per_s",
		"debloat.runtime_self_ms", "debloat.misses",
		"dataserve.hit_fetches", "dataserve.hit_ns_mean", "dataserve.miss_fetches",
		"dataserve.miss_us_mean", "dataserve.round_trips", "dataserve.retries",
		"dataserve.hit_rate", "dataserve.verify_ok", "dataserve.verify_failed",
		"dataserve.serve_ms", "dataserve.client_ms",
		"op_ms_p50_traced", "op_ms_p50_untraced", "tracing_overhead", "residual_share",
	}
	for _, l := range selfLayers {
		names = append(names, "self_ms."+l)
	}
	return names
}()

// perLayerUnit is the unit of a per-layer metric, read off its name.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.HasPrefix(name, "self_ms.") ||
		strings.HasPrefix(name, "op_ms_"):
		return "ms"
	case strings.HasSuffix(name, "_mib"):
		return "MiB"
	case strings.HasSuffix(name, "_mib_per_s"):
		return "MiB/s"
	case strings.HasSuffix(name, "_ns_mean") || strings.HasSuffix(name, "ns_per_event"):
		return "ns"
	case strings.HasSuffix(name, "_us_mean"):
		return "us"
	case strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_rate") ||
		strings.HasSuffix(name, "_share") || strings.HasSuffix(name, "_busy") ||
		name == "tracing_overhead":
		return "ratio"
	}
	return "count"
}

// layerMetrics fills the traced run's per-layer metrics: per-op means
// over the traced ops of span times and counts, the layer self-time
// table, the residual, and the tracing overhead. It returns the
// residual's share of traced op time.
func layerMetrics(res *result, rec *recorder, ops []opSummary, log io.Writer) float64 {
	byOp := rec.opSpans()
	sums := map[string]float64{}
	var traced, untraced, ratios []float64
	untracedByID := map[int]float64{}
	var wall float64
	n := 0
	for _, s := range ops {
		if !s.traced {
			untraced = append(untraced, s.ms)
			untracedByID[s.id] = s.ms
			continue
		}
		traced = append(traced, s.ms)
		if u, ok := untracedByID[s.id]; ok && u > 0 {
			ratios = append(ratios, s.ms/u)
		}
		spans := byOp[s.id]
		layers, root := shares(spans)
		if root == nil || s.layer == nil {
			continue
		}
		n++
		wall += float64(root.End - root.Start)
		for k, v := range layers {
			sums["self_ms."+k] += v / 1e6
		}
		for k, v := range s.layer {
			sums[k] += v
		}
		for k, v := range spanMetrics(spans) {
			sums[k] += v
		}
	}
	m := res.Metrics
	for k, v := range sums {
		if n > 0 {
			m[k] = metric{v / float64(n), perLayerUnit(k)}
		}
	}
	for k, v := range res.counts {
		m[k] = metric{v, perLayerUnit(k)}
	}
	if h := sums["dataserve.hit_fetches"]; h > 0 {
		m["dataserve.hit_ns_mean"] = metric{sums["hit_ns_total"] / h, "ns"}
	}
	if f := sums["dataserve.miss_fetches"]; f > 0 {
		m["dataserve.miss_us_mean"] = metric{sums["miss_ns_total"] / f / 1e3, "us"}
	}
	if h, ok := res.counts["dataserve.cache_hits"]; ok && h+res.counts["dataserve.cache_misses"] > 0 {
		m["dataserve.hit_rate"] = metric{h / (h + res.counts["dataserve.cache_misses"]), "ratio"}
	}
	m["op_ms_p50_traced"] = metric{median(traced), "ms"}
	m["op_ms_p50_untraced"] = metric{median(untraced), "ms"}
	// Paired ops ran the same campaign both ways; otherwise both halves
	// sample the same replay stream.
	if len(ratios) > 0 {
		m["tracing_overhead"] = metric{median(ratios), "ratio"}
	} else if u := median(untraced); u > 0 {
		m["tracing_overhead"] = metric{median(traced) / u, "ratio"}
	}
	if wall > 0 {
		m["residual_share"] = metric{sums["self_ms.residual"] * 1e6 / wall, "ratio"}
	}

	// The self-time table, largest layer first.
	type row struct {
		name string
		ms   float64
	}
	var rows []row
	var total float64
	for _, l := range selfLayers {
		if v := sums["self_ms."+l]; v > 0 {
			rows = append(rows, row{l, v / float64(n)})
			total += v / float64(n)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ms > rows[j].ms })
	fmt.Fprintf(log, "layer self time per traced op (%d ops, %.3f ms each):\n", n, wall/float64(max(n, 1))/1e6)
	for _, r := range rows {
		fmt.Fprintf(log, "  %-18s %10.3f ms %6.1f%%\n", r.name, r.ms, 100*r.ms/total)
	}
	share := m["residual_share"].Value
	verdict := "within"
	if share > maxResidualShare {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(log, "residual %.3f%% of traced op time, %s the allowed %.0f%%; tracing overhead %.3fx\n",
		100*share, verdict, 100*maxResidualShare, m["tracing_overhead"].Value)
	return share
}

// spanMetrics derives one op's per-layer times and call counts from its
// spans.
func spanMetrics(spans []*span) map[string]float64 {
	dur := map[string]float64{}
	cnt := map[string]float64{}
	kids := map[int][]*span{}
	var calls, callNS, bytes = map[string]float64{}, map[string]float64{}, map[string]float64{}
	var fuzzRun *span
	var runtimeSelf float64
	for _, s := range spans {
		dur[s.Name] += float64(s.End - s.Start)
		cnt[s.Name]++
		if l := foldedLayer[s.Name]; l != "" {
			calls[l] += float64(s.Calls)
			callNS[l] += float64(s.CallNS)
			bytes[l] += float64(s.Bytes)
		}
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
		if s.Name == "fuzz.run" {
			fuzzRun = s
		}
	}
	for _, s := range spans {
		if s.Name == "debloat.read" {
			runtimeSelf += float64(selfTime(s, kids[s.ID]))
		}
	}
	out := map[string]float64{
		"workload.eval_ms":        dur["workload.eval"] / 1e6,
		"workload.evals":          cnt["workload.eval"],
		"trace.open_ms":           dur["trace.open"] / 1e6,
		"trace.read_ms":           callNS["trace.read"] / 1e6,
		"trace.reads":             calls["trace.read"],
		"trace.read_mib":          bytes["trace.read"] / (1 << 20),
		"trace.resolve_ms":        dur["trace.resolve"] / 1e6,
		"sdf.read_self_ms":        (dur["sdf.run"] - sumCallNS(spans, "sdf.run")) / 1e6,
		"fuzz.run_ms":             dur["fuzz.run"] / 1e6,
		"carve.carve_ms":          dur["carve.carve"] / 1e6,
		"carve.raster_ms":         dur["carve.raster"] / 1e6,
		"debloat.write_ms":        dur["debloat.write"] / 1e6,
		"debloat.manifest_ms":     dur["debloat.manifest"] / 1e6,
		"debloat.runtime_self_ms": runtimeSelf / 1e6,
		"dataserve.hit_fetches":   calls["dataserve.hit"],
		"dataserve.miss_fetches":  cnt["dataserve.miss"],
		"dataserve.serve_ms":      dur["serve.request"] / 1e6,
		"dataserve.client_ms":     (dur["dataserve.miss"] - dur["serve.request"]) / 1e6,
		// Totals for the run-wide fetch means; not reported themselves.
		"hit_ns_total":  callNS["dataserve.hit"],
		"miss_ns_total": dur["dataserve.miss"],
	}
	if fuzzRun != nil && fuzzRun.End > fuzzRun.Start {
		out["fuzz.self_ms"] = float64(selfTime(fuzzRun, kids[fuzzRun.ID])) / 1e6
		out["fuzz.worker_busy"] = dur["workload.eval"] / (float64(fuzzRun.End-fuzzRun.Start) * workers)
	}
	return out
}

func sumCallNS(spans []*span, name string) float64 {
	var ns float64
	for _, s := range spans {
		if s.Name == name {
			ns += float64(s.CallNS)
		}
	}
	return ns
}

// envLine records where and how the run measured.
func envLine(o options, hz float64) string {
	cache := 0 // only prl-recover has a chunk cache
	if o.workload == "prl-recover" {
		cache = cacheBytes
	}
	env := map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.traced,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"workers":     map[string]int{"fuzz": workers, "carve": workers},
		"cache_bytes": cache,
		"tmp_dir":     o.dir,
		"tmp_fs":      fsType(o.dir),
		"flush":       "no fsync: sdf.Writer and Manifest.Save write through the page cache",
		// The run's median clock rate, to which its CPU times are scaled.
		"clock_ghz": hz / 1e9,
	}
	b, _ := json.Marshal(env)
	return string(b)
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measuring time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.traced = traceFlag == 1
	o.dir = filepath.Join(".bench_build", "perfbench-work", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	o.spans = filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-seed%d.json", o.workload, o.seed))
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(o, os.Stdout)
	os.RemoveAll(o.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
