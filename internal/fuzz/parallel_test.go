package fuzz

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/workload"
)

// sameIndexSet reports whether two sets contain exactly the same
// indices.
func sameIndexSet(a, b *array.IndexSet) bool {
	if a.Len() != b.Len() {
		return false
	}
	same := true
	a.Each(func(ix array.Index) bool {
		if !b.Contains(ix) {
			same = false
			return false
		}
		return true
	})
	return same
}

// TestDeterministicAcrossWorkerCounts is the tentpole contract: a fixed
// Config.Seed yields bit-identical campaigns at any worker count. The
// field checks name what diverged; the digest also covers the dedup,
// verdict and failure counters.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	space := array.MustSpace(64, 64)
	params := workload.ParamSpace{{Lo: 0, Hi: 63}, {Lo: 0, Hi: 63}}
	runSeed := func(seed int64, workers int) *Result {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.MaxIter = 600
		cfg.Workers = workers
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
	run := func(workers int) *Result { return runSeed(42, workers) }
	ref := run(1)
	for _, workers := range []int{4, 8} {
		got := run(workers)
		if got.Workers != workers {
			t.Errorf("Workers=%d: result reports %d workers", workers, got.Workers)
		}
		if !sameIndexSet(ref.Indices, got.Indices) {
			t.Errorf("Workers=%d: Indices differ (%d vs %d elements)",
				workers, ref.Indices.Len(), got.Indices.Len())
		}
		if got.Evaluations != ref.Evaluations || got.Iterations != ref.Iterations {
			t.Errorf("Workers=%d: evaluations/iterations %d/%d, want %d/%d",
				workers, got.Evaluations, got.Iterations, ref.Evaluations, ref.Iterations)
		}
		if len(got.Curve) != len(ref.Curve) {
			t.Fatalf("Workers=%d: curve length %d, want %d", workers, len(got.Curve), len(ref.Curve))
		}
		for i := range ref.Curve {
			if got.Curve[i] != ref.Curve[i] {
				t.Fatalf("Workers=%d: curve diverges at evaluation %d: %d vs %d",
					workers, i, got.Curve[i], ref.Curve[i])
			}
		}
		if len(got.Seeds) != len(ref.Seeds) {
			t.Fatalf("Workers=%d: %d seeds, want %d", workers, len(got.Seeds), len(ref.Seeds))
		}
		for i := range ref.Seeds {
			if got.Seeds[i].Useful != ref.Seeds[i].Useful {
				t.Fatalf("Workers=%d: seed %d verdict differs", workers, i)
			}
			for k := range ref.Seeds[i].V {
				if got.Seeds[i].V[k] != ref.Seeds[i].V[k] {
					t.Fatalf("Workers=%d: seed %d value differs", workers, i)
				}
			}
		}
		if got.UsefulClusters != ref.UsefulClusters || got.NonUsefulClusters != ref.NonUsefulClusters {
			t.Errorf("Workers=%d: clusters %d/%d, want %d/%d", workers,
				got.UsefulClusters, got.NonUsefulClusters,
				ref.UsefulClusters, ref.NonUsefulClusters)
		}
		if got.StopReason != ref.StopReason {
			t.Errorf("Workers=%d: stop reason %q, want %q", workers, got.StopReason, ref.StopReason)
		}
		if dr, dg := digest(ref), digest(got); dr != dg {
			t.Errorf("Workers=%d: digest %s, want %s", workers, dg, dr)
		}
	}
	// The oracle must tell campaigns apart: another seed, another digest.
	if digest(runSeed(7, 1)) == digest(ref) {
		t.Error("different seeds produced identical digests")
	}
}

// TestCancellationReturnsPartialResult: canceling the context stops the
// campaign within one batch and returns the work done so far.
func TestCancellationReturnsPartialResult(t *testing.T) {
	space := array.MustSpace(64, 64)
	params := workload.ParamSpace{{Lo: 0, Hi: 63}, {Lo: 0, Hi: 63}}
	ctx, cancel := context.WithCancel(context.Background())
	var evals atomic.Int64
	eval := func(v []float64) (*array.IndexSet, error) {
		if evals.Add(1) == 40 {
			cancel() // cancel mid-campaign, from inside an evaluation
		}
		return rectEvaluator(space, 0, 63, 0, 63)(v)
	}
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.MaxIter = 100000
	cfg.StopIter = 0
	cfg.Workers = 4
	f, err := New(params, space, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := f.Run(ctx)
	if err != nil {
		t.Fatalf("canceled run should return the partial result, got error %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", took)
	}
	if res.StopReason != StopCanceled {
		t.Errorf("stop reason %q, want %q", res.StopReason, StopCanceled)
	}
	if res.Evaluations == 0 || res.Indices.Empty() {
		t.Error("partial result lost the accumulated observations")
	}
	if res.Evaluations >= 100000 {
		t.Error("campaign ran to completion despite cancellation")
	}
}

// blockAt returns the indices of the 5×3 block whose corner is v
// rounded, clipped to the space: a debloat test whose I_v moves with
// the seed, so nearly every test adds indices.
func blockAt(space array.Space, v []float64) *array.IndexSet {
	set := array.NewIndexSet(space)
	x0, y0 := workload.RoundParam(v[0]), workload.RoundParam(v[1])
	for x := x0; x < min(x0+5, space.Dim(0)); x++ {
		for y := y0; y < min(y0+3, space.Dim(1)); y++ {
			set.Add(array.NewIndex(x, y))
		}
	}
	return set
}

// TestCancellationKeepsStagedIndices cancels a campaign part-way
// through a round's merge. The indices the round's merged tests
// observed must still reach Indices: it equals the union of I_v over
// the evaluated seeds, and the last Curve point equals its size.
func TestCancellationKeepsStagedIndices(t *testing.T) {
	space := array.MustSpace(64, 64)
	params := workload.ParamSpace{{Lo: 0, Hi: 63}, {Lo: 0, Hi: 63}}
	const cancelAt = DefaultBatchSize + 8 // the 8th test of the second round
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var evals atomic.Int64
	eval := func(v []float64) (*array.IndexSet, error) {
		if evals.Add(1) == cancelAt {
			cancel()
		}
		return blockAt(space, v), nil
	}
	cfg := DefaultConfig()
	cfg.Seed = 9
	cfg.MaxIter = 100000
	cfg.StopIter = 0
	cfg.Workers = 1 // the canceling test is the last one evaluated
	f, err := New(params, space, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopCanceled || res.Evaluations != cancelAt {
		t.Fatalf("stop %q after %d tests, want %q after %d", res.StopReason, res.Evaluations, StopCanceled, cancelAt)
	}
	want := array.NewIndexSet(space)
	for _, s := range res.Seeds {
		want.UnionWith(blockAt(space, s.V))
	}
	if !res.Indices.Equal(want) {
		t.Errorf("Indices holds %d indices, the union of the evaluated tests' I_v %d",
			res.Indices.Len(), want.Len())
	}
	if last := res.Curve[len(res.Curve)-1]; last != res.Indices.Len() {
		t.Errorf("last Curve point %d, |Indices| %d", last, res.Indices.Len())
	}
}

// TestFailuresDoNotAbortCampaign locks in the failure-tolerance fix: a
// failing debloat test is recorded and skipped, and the campaign keeps
// the indices accumulated from the seeds that succeeded.
func TestFailuresDoNotAbortCampaign(t *testing.T) {
	space := array.MustSpace(32, 32)
	params := workload.ParamSpace{{Lo: 0, Hi: 31}, {Lo: 0, Hi: 31}}
	boom := errors.New("flaky audit")
	inner := rectEvaluator(space, 0, 31, 0, 31)
	eval := func(v []float64) (*array.IndexSet, error) {
		// Every third column of Θ fails.
		if workload.RoundParam(v[0])%3 == 0 {
			return nil, fmt.Errorf("x=%v: %w", v[0], boom)
		}
		return inner(v)
	}
	cfg := DefaultConfig()
	cfg.Seed = 8
	cfg.MaxIter = 400
	f, err := New(params, space, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatalf("partially failing campaign should succeed, got %v", err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("no failures recorded")
	}
	for _, fl := range res.Failures {
		if !errors.Is(fl.Err, boom) {
			t.Errorf("failure lost its cause: %v", fl.Err)
		}
		if workload.RoundParam(fl.V[0])%3 != 0 {
			t.Errorf("failure recorded for a seed that should have passed: %v", fl.V)
		}
	}
	if res.Evaluations == 0 || res.Indices.Empty() {
		t.Error("successful evaluations were discarded")
	}
	if res.Iterations != res.Evaluations+len(res.Failures) {
		t.Errorf("iterations %d != evaluations %d + failures %d",
			res.Iterations, res.Evaluations, len(res.Failures))
	}
}

// TestAllFailuresError: when every attempted test fails there is
// nothing to report, so Run errors out with the first cause.
func TestAllFailuresError(t *testing.T) {
	space := array.MustSpace(16, 16)
	params := workload.ParamSpace{{Lo: 0, Hi: 15}, {Lo: 0, Hi: 15}}
	boom := errors.New("audit broken")
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.MaxIter = 50
	f, err := New(params, space, func(v []float64) (*array.IndexSet, error) {
		return nil, boom
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("all-failed campaign returned %v, want wrapped %v", err, boom)
	}
}

// TestRestartPreservesFrontier locks in the restart fix: a restart adds
// fresh uniform seeds without discarding the pending mutant queue.
// Uniform samples are integer valuations, and a mutant almost never
// is, so the fractional seeds a campaign evaluates are its mutants.
// With Restart=1 (a restart after every iteration), a restart that
// cleared the queue would drop every mutant before its turn and the
// campaign would evaluate uniform samples only.
func TestRestartPreservesFrontier(t *testing.T) {
	space := array.MustSpace(64, 64)
	params := workload.ParamSpace{{Lo: 0, Hi: 63}, {Lo: 0, Hi: 63}}
	cfg := DefaultConfig()
	cfg.Seed = 13
	cfg.MaxIter = 400
	cfg.Restart = 1
	f, err := New(params, space, rectEvaluator(space, 16, 47, 16, 47), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mutants := 0
	for _, s := range res.Seeds {
		for _, x := range s.V {
			if x != math.Trunc(x) {
				mutants++
				break
			}
		}
	}
	// Each iteration queues 5 to 8 mutants behind 20 fresh samples;
	// after dedup and clamping, 54 of the 400 seeds evaluated here are
	// fractional mutants. A cleared queue would leave none.
	if mutants < len(res.Seeds)/20 {
		t.Errorf("restart-heavy campaign evaluated %d mutants among %d seeds: pending mutants were lost", mutants, len(res.Seeds))
	}
	if res.Useful == 0 {
		t.Error("no seed reached the region")
	}
	if res.MaxQueueDepth == 0 {
		t.Error("queue depth never recorded")
	}
}

// TestSmallSpaceExhausts locks in the dedup fix: deduplicated seeds no
// longer count toward StopIter, so a tiny Θ is evaluated completely and
// the campaign reports exhaustion rather than looping on reseeds.
func TestSmallSpaceExhausts(t *testing.T) {
	space := array.MustSpace(4, 4)
	params := workload.ParamSpace{{Lo: 0, Hi: 3}, {Lo: 0, Hi: 3}}
	cfg := DefaultConfig()
	cfg.Seed = 2
	cfg.MaxIter = 100000
	cfg.StopIter = 100000 // only exhaustion may stop this campaign
	f, err := New(params, space, rectEvaluator(space, 0, 3, 0, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 16 {
		t.Errorf("evaluated %d of the 16 valuations", res.Evaluations)
	}
	if res.StopReason != StopExhausted {
		t.Errorf("stop reason %q, want %q", res.StopReason, StopExhausted)
	}
}

// TestParallelSpeedup: with an evaluator dominated by waiting (the
// audited-container case), the worker pool overlaps evaluations. The
// evaluator sleeps, so the test measures pool overlap, not CPU count.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	space := array.MustSpace(32, 32)
	params := workload.ParamSpace{{Lo: 0, Hi: 31}, {Lo: 0, Hi: 31}}
	inner := rectEvaluator(space, 0, 31, 0, 31)
	eval := func(v []float64) (*array.IndexSet, error) {
		time.Sleep(3 * time.Millisecond)
		return inner(v)
	}
	run := func(workers int) (time.Duration, *Result) {
		cfg := DefaultConfig()
		cfg.Seed = 21
		cfg.MaxEvals = 96
		cfg.MaxIter = 100000
		cfg.Workers = workers
		f, err := New(params, space, eval, cfg)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := f.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), res
	}
	seq, seqRes := run(1)
	par, parRes := run(8)
	t.Logf("workers=1: %v, workers=8: %v (%.1fx)", seq, par, float64(seq)/float64(par))
	if !sameIndexSet(seqRes.Indices, parRes.Indices) {
		t.Error("parallel run changed the result")
	}
	if par > seq*2/3 {
		t.Errorf("8 workers took %v, sequential %v: pool did not overlap evaluations", par, seq)
	}
	if parRes.EvalWall <= parRes.Elapsed {
		t.Errorf("EvalWall %v should exceed Elapsed %v under a parallel pool",
			parRes.EvalWall, parRes.Elapsed)
	}
}
