package metrics

import (
	"fmt"
	"time"

	"repro/internal/fuzz"
)

// CampaignStats summarizes the throughput side of a fuzz campaign —
// the §V observability counters the worker-pool evaluator exposes:
// debloat tests per second, how busy the pool's workers were, how
// many tests failed, and how deep the mutant queue grew.
type CampaignStats struct {
	// Evaluations is the number of successful debloat tests.
	Evaluations int
	// FailedEvals is the number of debloat tests that errored and were
	// skipped.
	FailedEvals int
	// DedupSkips counts seeds dropped without a test because their
	// valuation had already been evaluated.
	DedupSkips int
	// Batches is the number of seed batches dispatched to the pool.
	Batches int
	// Workers is the resolved worker count of the campaign.
	Workers int
	// MaxQueueDepth is the high-water mark of the pending-mutant
	// queue.
	MaxQueueDepth int
	// Elapsed is the campaign's wall-clock duration; EvalWall is the
	// summed in-evaluator time across all workers.
	Elapsed  time.Duration
	EvalWall time.Duration
	// StopReason states why the campaign ended.
	StopReason fuzz.StopReason
}

// Campaign extracts the throughput stats of a fuzz result.
func Campaign(res *fuzz.Result) CampaignStats {
	return CampaignStats{
		Evaluations:   res.Evaluations,
		FailedEvals:   len(res.Failures),
		DedupSkips:    res.DedupSkips,
		Batches:       res.Batches,
		Workers:       res.Workers,
		MaxQueueDepth: res.MaxQueueDepth,
		Elapsed:       res.Elapsed,
		EvalWall:      res.EvalWall,
		StopReason:    res.StopReason,
	}
}

// EvalsPerSec returns the campaign's debloat-test throughput
// (successful and failed tests over wall-clock time).
func (s CampaignStats) EvalsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Evaluations+s.FailedEvals) / s.Elapsed.Seconds()
}

// WorkerUtilization returns the fraction of the pool's capacity spent
// inside the evaluator: EvalWall / (Elapsed × Workers), clamped to
// [0, 1]. A value near 1/Workers means the campaign was effectively
// sequential (evaluations too cheap to amortize the pool); a value
// near 1 means the workers were saturated.
func (s CampaignStats) WorkerUtilization() float64 {
	if s.Elapsed <= 0 || s.Workers <= 0 {
		return 0
	}
	u := s.EvalWall.Seconds() / (s.Elapsed.Seconds() * float64(s.Workers))
	if u > 1 {
		u = 1
	}
	return u
}

// String renders the stats as a one-line summary.
func (s CampaignStats) String() string {
	return fmt.Sprintf("%d evals (%d failed, %d deduped) in %v over %d batches: %.0f evals/s, %d workers at %.0f%% utilization, queue peak %d, stop: %s",
		s.Evaluations, s.FailedEvals, s.DedupSkips, s.Elapsed.Round(time.Millisecond),
		s.Batches, s.EvalsPerSec(), s.Workers, 100*s.WorkerUtilization(),
		s.MaxQueueDepth, s.StopReason)
}
