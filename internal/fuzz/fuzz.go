package fuzz

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Evaluator is the debloat test (paper Def. 2): given a parameter
// value it returns the index subset I_v the audited program accesses.
// An empty set marks the value as not useful.
//
// When Config.Workers resolves to more than one, the evaluator is
// called from multiple goroutines concurrently and must be safe for
// concurrent use. Evaluators built from workload programs
// (ForProgram, workload.RunOnVirtual) are safe: each call runs against
// its own accessor.
type Evaluator func(v []float64) (*array.IndexSet, error)

// SeedRecord is one evaluated parameter value, retained for the Fig. 4
// style scatter of the fuzz campaign.
type SeedRecord struct {
	V      []float64
	Useful bool
}

// EvalFailure records one debloat test that returned an error. The
// campaign skips the failing seed and keeps the accumulated index set;
// Run returns an error only when every attempted evaluation failed.
type EvalFailure struct {
	V   []float64
	Err error
}

// StopReason states why a campaign ended.
type StopReason string

const (
	// StopMaxIter: the MaxIter schedule-iteration cap was reached.
	StopMaxIter StopReason = "max-iter"
	// StopIdle: StopIter consecutive evaluated iterations found no new
	// offset.
	StopIdle StopReason = "stop-iter"
	// StopBudget: the MaxEvals debloat-test budget was spent.
	StopBudget StopReason = "max-evals"
	// StopDeadline: the TimeBudget wall-clock deadline passed.
	StopDeadline StopReason = "deadline"
	// StopCanceled: the campaign context was canceled (or hit its own
	// deadline).
	StopCanceled StopReason = "canceled"
	// StopExhausted: every integer valuation of Θ has been evaluated —
	// nothing is left to test.
	StopExhausted StopReason = "exhausted"
)

// Result is the outcome of a fuzz campaign.
type Result struct {
	// Indices is IS = ∪ I_v over all evaluated seeds — the carver's
	// input.
	Indices *array.IndexSet
	// Seeds are the evaluated parameter values in schedule order.
	Seeds []SeedRecord
	// Iterations is the number of schedule iterations executed (seeds
	// evaluated or failed; deduplicated seeds consume no iteration).
	Iterations int
	// Evaluations is the number of debloat tests that ran successfully
	// (= p of Def. 3).
	Evaluations int
	// Failures are the debloat tests that errored; their seeds were
	// skipped without aborting the campaign.
	Failures []EvalFailure
	// DedupSkips counts seeds dropped because their integer valuation
	// had already been evaluated (Alg. 1 line 19).
	DedupSkips int
	// Useful and NonUseful count seed verdicts.
	Useful, NonUseful int
	// UsefulClusters and NonUsefulClusters count the clusters formed.
	UsefulClusters, NonUsefulClusters int
	// Curve is the cumulative |IS| after each evaluation — the
	// data-coverage-over-tests trajectory of the campaign.
	Curve []int
	// Elapsed is the campaign's wall-clock duration.
	Elapsed time.Duration
	// EvalWall is the summed wall-clock time spent inside the
	// evaluator across all workers; it exceeds Elapsed when the pool
	// actually ran evaluations in parallel.
	EvalWall time.Duration
	// Workers is the resolved worker count the campaign ran with.
	Workers int
	// Batches is the number of seed batches dispatched to the pool.
	Batches int
	// MaxQueueDepth is the high-water mark of the pending-mutant
	// queue.
	MaxQueueDepth int
	// StopReason states why the campaign ended.
	StopReason StopReason
	// Coverage is the per-round coverage time series: covered-index
	// counts, discovery deltas, per-dimension extent coverage, and the
	// saturation estimate (always recorded; one point per batch).
	Coverage *CoverageSeries
	// Witnesses maps each covered index (by linear position) to the
	// ordinal into Seeds of the debloat test that first observed it —
	// the fuzz half of the inclusion-provenance index. Nil unless
	// Config.Witnesses was set.
	Witnesses map[int64]int
}

// Fuzzer runs Alg. 1 against one program's parameter space.
type Fuzzer struct {
	cfg    Config
	params workload.ParamSpace
	space  array.Space
	eval   Evaluator
}

// New returns a fuzzer for the given parameter space Θ, data-array
// space, and debloat-test evaluator.
func New(params workload.ParamSpace, space array.Space, eval Evaluator, cfg Config) (*Fuzzer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(params) == 0 {
		return nil, fmt.Errorf("fuzz: empty parameter space")
	}
	if eval == nil {
		return nil, fmt.Errorf("fuzz: nil evaluator")
	}
	return &Fuzzer{cfg: cfg, params: params, space: space, eval: eval}, nil
}

// ForProgram returns a fuzzer whose evaluator is the virtual debloat
// test of the given program.
func ForProgram(p workload.Program, cfg Config) (*Fuzzer, error) {
	eval := func(v []float64) (*array.IndexSet, error) {
		return workload.RunOnVirtual(p, v)
	}
	return New(p.Params(), p.Space(), eval, cfg)
}

// Run executes the fuzz schedule (Alg. 1) and returns the accumulated
// index observations.
//
// Each schedule round drains a deterministic batch of seeds from the
// queue and evaluates it through a bounded worker pool; per-seed
// results are then merged sequentially in seed order, so a fixed
// Config.Seed yields bit-identical results at any worker count (the
// batch composition and the RNG stream depend only on the
// configuration, never on Workers).
//
// Cancellation stops the campaign within the current batch: Run
// returns the partial result accumulated so far with a nil error and
// StopReason set to StopCanceled. A failing debloat test is recorded
// in Result.Failures and skipped; Run returns an error only when every
// attempted evaluation failed.
func (f *Fuzzer) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := f.cfg
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Instruments resolve once per campaign; with no registry or trace
	// in the context every use below is a nil-receiver no-op.
	reg := obs.RegistryOf(ctx)
	mEvals := reg.Counter("kondo_fuzz_evals_total")
	mFailed := reg.Counter("kondo_fuzz_failed_evals_total")
	mDedup := reg.Counter("kondo_fuzz_dedup_skips_total")
	mBatches := reg.Counter("kondo_fuzz_batches_total")
	gIndices := reg.Gauge("kondo_fuzz_indices")
	gQueue := reg.Gauge("kondo_fuzz_queue_depth")
	gSaturation := reg.Gauge("kondo_fuzz_saturation")
	gNew := reg.Gauge("kondo_fuzz_new_indices")
	gDim := make([]*obs.Gauge, f.space.Rank())
	for k := range gDim {
		gDim[k] = reg.Gauge("kondo_fuzz_dim_coverage", obs.L("dim", strconv.Itoa(k)))
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()
	var deadline time.Time
	if cfg.TimeBudget > 0 {
		deadline = start.Add(cfg.TimeBudget)
	}

	cov := newCovTracker(f.space, start)
	res := &Result{Indices: array.NewIndexSet(f.space), Workers: workers, Coverage: cov.series}
	if cfg.Witnesses {
		res.Witnesses = make(map[int64]int)
	}
	runSpan := obs.Start(ctx, "fuzz.run")
	if runSpan != nil {
		runSpan.Arg("workers", workers).Arg("batch_size", DefaultBatchSize)
	}
	defer func() {
		if runSpan != nil {
			runSpan.Arg("evals", res.Evaluations).Arg("stop", string(res.StopReason))
		}
		runSpan.End()
	}()
	clUseful := newClusterSet(cfg.Diameter)
	clNonUseful := newClusterSet(cfg.Diameter)
	evaluated := make(map[string]bool)
	totalVals := f.params.Valuations()
	var queue [][]float64
	eps := cfg.Epsilon
	idleIters := 0 // new_itr: evaluated iterations since the last new offset
	itr := 0       // schedule iterations = seeds handed to the evaluator

	// reseed adds n fresh uniform samples. It never clears the queue:
	// Alg. 1's restart re-seeds exploration but keeps the pending
	// boundary-mutant frontier.
	reseed := func() {
		for i := 0; i < cfg.InitialSeeds; i++ {
			queue = append(queue, f.params.Sample(rng))
		}
		if len(queue) > res.MaxQueueDepth {
			res.MaxQueueDepth = len(queue)
		}
	}

	// A provided corpus takes the first turn; it is clamped into Θ and
	// deduped by the normal evaluation bookkeeping.
	for _, v := range cfg.InitialValues {
		if len(v) == len(f.params) {
			queue = append(queue, f.params.Clamp(v))
		}
	}

	stop := StopMaxIter // reason when the for condition ends the loop
	batch := make([][]float64, 0, DefaultBatchSize)
loop:
	for itr < cfg.MaxIter {
		if cfg.StopIter > 0 && idleIters >= cfg.StopIter {
			stop = StopIdle
			break
		}
		if cfg.MaxEvals > 0 && res.Evaluations >= cfg.MaxEvals {
			stop = StopBudget
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			stop = StopDeadline
			break
		}
		if ctx.Err() != nil {
			stop = StopCanceled
			break
		}

		// Select the round's batch: pop seeds in queue order, dropping
		// already-evaluated valuations, refilling with fresh uniform
		// samples when the queue drains. The batch size is bounded by
		// the remaining iteration and evaluation budgets and is
		// independent of the worker count.
		want := DefaultBatchSize
		if left := cfg.MaxIter - itr; left < want {
			want = left
		}
		if cfg.MaxEvals > 0 {
			if left := cfg.MaxEvals - res.Evaluations; left < want {
				want = left
			}
		}
		batch = batch[:0]
		for len(batch) < want {
			if len(queue) == 0 {
				if int64(len(evaluated)) >= totalVals {
					break // Θ exhausted: no fresh sample exists
				}
				reseed()
				continue
			}
			v := queue[0]
			queue = queue[1:]
			key := seedKey(v)
			if evaluated[key] {
				// Already-seen valuations cost no debloat test; they
				// must not count toward the no-new-offset stop.
				res.DedupSkips++
				mDedup.Inc()
				continue
			}
			evaluated[key] = true
			batch = append(batch, v)
		}
		if len(batch) == 0 {
			stop = StopExhausted
			break
		}

		res.Batches++
		mBatches.Inc()
		roundNew := 0
		roundSpan := obs.Start(ctx, "fuzz.round")
		if roundSpan != nil {
			roundSpan.Arg("batch", res.Batches).Arg("seeds", len(batch))
		}
		outs := f.evalBatch(ctx, batch, workers)
		roundSpan.End()

		// Merge in seed order. Only this sequential phase touches the
		// RNG, the clusters, and the accumulated state, so the outcome
		// is independent of how the pool interleaved the evaluations.
		for i, v := range batch {
			out := outs[i]
			if out.skipped {
				stop = StopCanceled
				break loop
			}
			itr++
			res.Iterations = itr
			res.EvalWall += out.dur
			if out.err != nil {
				res.Failures = append(res.Failures, EvalFailure{
					V:   append([]float64(nil), v...),
					Err: out.err,
				})
				idleIters++
				mFailed.Inc()
			} else {
				res.Evaluations++
				mEvals.Inc()
				useful := !out.indices.Empty()

				// Fold I_v into IS as one run union. The ranges it
				// reports are exactly I_v \ IS, in ascending order, so
				// the coverage tracker and the witness map see each
				// newly covered index once.
				ord := len(res.Seeds) // the SeedRecord appended below
				added := int(res.Indices.UnionWithNew(out.indices, func(lo, hi int64) {
					cov.observeRun(lo, hi)
					if res.Witnesses != nil {
						for lin := lo; lin <= hi; lin++ {
							res.Witnesses[lin] = ord
						}
					}
				}))
				roundNew += added
				if added > 0 {
					idleIters = 0
				} else {
					idleIters++
				}
				res.Curve = append(res.Curve, res.Indices.Len())

				res.Seeds = append(res.Seeds, SeedRecord{V: append([]float64(nil), v...), Useful: useful})
				vp := geom.Point(v)
				if useful {
					res.Useful++
					clUseful.add(vp)
				} else {
					res.NonUseful++
					clNonUseful.add(vp)
				}

				for _, mutant := range f.mutate(vp, useful, eps, clUseful, clNonUseful, rng) {
					if !evaluated[seedKey(mutant)] {
						queue = append(queue, mutant)
					}
				}
				if len(queue) > res.MaxQueueDepth {
					res.MaxQueueDepth = len(queue)
				}
				gIndices.Set(float64(res.Indices.Len()))
				gQueue.Set(float64(len(queue)))
			}

			if cfg.DecayIter > 0 && itr%cfg.DecayIter == 0 {
				eps *= cfg.Decay
			}
			if cfg.Restart > 0 && itr%cfg.Restart == 0 {
				reseed()
			}
		}

		// Close the round: one coverage point per merged batch. The
		// tracker only reads accumulated state, so the snapshot (and
		// the optional live-telemetry callback) cannot perturb the
		// campaign.
		p := cov.snapshot(res.Batches, itr, res.Evaluations, res.Indices.Len(), roundNew)
		gSaturation.Set(p.Saturation)
		gNew.Set(float64(p.New))
		for k, v := range p.DimCoverage {
			gDim[k].Set(v)
		}
		if cfg.OnCoverage != nil {
			cfg.OnCoverage(p)
		}
	}
	res.StopReason = stop

	res.UsefulClusters = clUseful.size()
	res.NonUsefulClusters = clNonUseful.size()
	res.Elapsed = time.Since(start)
	if res.Evaluations == 0 && len(res.Failures) > 0 {
		first := res.Failures[0]
		return nil, fmt.Errorf("fuzz: every debloat test failed (%d failures); first at %v: %w",
			len(res.Failures), first.V, first.Err)
	}
	return res, nil
}

// mutate implements MUTATE of Alg. 1: with probability ε a plain
// exploit/explore frame mutation; otherwise a boundary-based mutation
// toward the nearest opposite-type cluster, with the frame scaled by
// the distance to that cluster (far from the boundary → bigger frame,
// near → denser sampling).
func (f *Fuzzer) mutate(v geom.Point, useful bool, eps float64,
	clUseful, clNonUseful *clusterSet, rng *rand.Rand) [][]float64 {

	dist := f.cfg.NonUsefulDist
	reps := f.cfg.NonUsefulReps
	if useful {
		dist = f.cfg.UsefulDist
		reps = f.cfg.UsefulReps
	}

	useBoundary := false
	var target geom.Point
	var targetDist float64
	if f.cfg.Boundary && rng.Float64() > eps {
		opposite := clNonUseful
		if !useful {
			opposite = clUseful
		}
		if c, d, ok := opposite.nearest(v); ok {
			useBoundary = true
			target = c
			targetDist = d
		}
	}

	out := make([][]float64, 0, reps)
	for r := 0; r < reps; r++ {
		var mutant []float64
		if useBoundary {
			mutant = f.greedyStep(v, target, targetDist, dist, rng)
		} else {
			mutant = f.uniformStep(v, dist, rng)
		}
		out = append(out, f.params.Clamp(mutant))
	}
	return out
}

// uniformStep is UNIFORM: step each dimension by a magnitude drawn
// from the frame interval, in a random direction.
func (f *Fuzzer) uniformStep(v geom.Point, dist [2]float64, rng *rand.Rand) []float64 {
	out := make([]float64, len(v))
	for k := range v {
		step := dist[0] + rng.Float64()*(dist[1]-dist[0])
		if rng.Intn(2) == 0 {
			step = -step
		}
		out[k] = v[k] + step
	}
	return out
}

// greedyStep is GREEDY: move toward the opposite-type cluster center,
// scaling the frame by the distance to it — a distant boundary gets a
// larger stride, a close boundary gets fine-grained probing.
func (f *Fuzzer) greedyStep(v, target geom.Point, targetDist float64, dist [2]float64, rng *rand.Rand) []float64 {
	scale := targetDist / f.cfg.Diameter
	if scale < 0.25 {
		scale = 0.25
	} else if scale > 4 {
		scale = 4
	}
	mag := (dist[0] + rng.Float64()*(dist[1]-dist[0])) * scale
	dir := target.Sub(v)
	n := dir.Norm()
	out := make([]float64, len(v))
	for k := range v {
		var d float64
		if n > 0 {
			d = dir[k] / n
		}
		// Step toward the boundary plus per-dimension jitter so the
		// probes spread along the boundary, not just across it.
		jitter := (rng.Float64()*2 - 1) * dist[0]
		out[k] = v[k] + d*mag + jitter
	}
	return out
}

// seedKey identifies a seed by the integer valuation it rounds to —
// the "i is new" dedup of Alg. 1 line 19, expressed in the units the
// program actually distinguishes.
func seedKey(v []float64) string {
	var b strings.Builder
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", workload.RoundParam(x))
	}
	return b.String()
}
