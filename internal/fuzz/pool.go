package fuzz

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/array"
	"repro/internal/obs"
)

// outcome is one batch slot's result: the index set the debloat test
// observed, or the error it failed with, plus the evaluator's
// wall-clock cost. skipped marks a slot whose evaluation never ran
// because the campaign was canceled first; the merge loop stops there.
type outcome struct {
	indices *array.IndexSet
	err     error
	dur     time.Duration
	skipped bool
}

// evalBatch evaluates one schedule round's seed batch through a
// bounded pool of workers goroutines over the campaign's evaluator and
// returns per-slot outcomes aligned with the batch. Values of workers
// below 2 evaluate the batch inline on the calling goroutine,
// preserving the sequential campaign's execution environment exactly.
// Run merges the outcomes sequentially in seed order, so how the pool
// interleaved the evaluations never shows in the result.
func (f *Fuzzer) evalBatch(ctx context.Context, batch [][]float64, workers int) []outcome {
	outs := make([]outcome, len(batch))
	if workers > len(batch) {
		workers = len(batch)
	}
	runOne := func(i int) {
		if ctx.Err() != nil {
			outs[i].skipped = true
			return
		}
		t0 := time.Now()
		iv, err := f.eval(batch[i])
		if err == nil && !sameSpace(iv.Space(), f.space) {
			// The merge unions linear positions, which only line up
			// within one space.
			iv, err = nil, fmt.Errorf("fuzz: evaluator returned indices over %v, want %v", iv.Space(), f.space)
		}
		outs[i] = outcome{indices: iv, err: err, dur: time.Since(t0)}
	}
	if workers <= 1 {
		for i := range batch {
			runOne(i)
		}
		return outs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each pool worker gets its own trace lane (tid 0 is the
			// scheduler, 1 the merge loop) so Perfetto renders the
			// batch's parallelism as stacked rows.
			sp := obs.Start(ctx, "fuzz.worker")
			if sp != nil {
				sp.SetTID(w+2).Arg("worker", w)
			}
			defer sp.End()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				runOne(i)
			}
		}(w)
	}
	wg.Wait()
	return outs
}

// sameSpace reports whether two spaces have the same extents.
func sameSpace(a, b array.Space) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for k := 0; k < a.Rank(); k++ {
		if a.Dim(k) != b.Dim(k) {
			return false
		}
	}
	return true
}
