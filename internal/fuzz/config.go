// Package fuzz implements Kondo's data-coverage-directed fuzzing
// schedules (paper §IV-A, Alg. 1): plain exploit-and-explore, and
// boundary-based exploit-and-explore with useful/non-useful parameter
// clusters, ε-greedy scheduling between the two, random restarts, and
// new-offset-driven stopping.
//
// Unlike traditional fuzzers, which maximize code coverage, these
// schedules maximize *data* coverage: they direct parameter-value
// mutation toward the boundaries of the regions of the data array
// where accesses occur, so that the carver sees the subset outline
// after far fewer debloat tests than brute force.
package fuzz

import "fmt"

// DefaultBatchSize is the number of seeds drained from the queue per
// schedule round and evaluated concurrently. It is deliberately
// independent of Config.Workers so the schedule (batch composition and
// RNG stream) never depends on the degree of parallelism.
const DefaultBatchSize = 32

// Config holds the fuzz-schedule parameters of paper Fig. 5. The
// defaults are the evaluation configuration of §V-B.
type Config struct {
	// InitialSeeds is n, the number of uniformly sampled parameter
	// values that seed the queue (and refill it on random restart).
	InitialSeeds int
	// MaxIter is max_iter: the maximum number of schedule iterations,
	// each evaluating one seed.
	MaxIter int
	// StopIter is stop_iter: terminate early after this many
	// consecutive iterations that discovered no new offset.
	StopIter int
	// Diameter is the cluster diameter: a parameter value farther than
	// this from every same-type cluster center starts a new cluster.
	Diameter float64
	// UsefulReps (u_reps) and NonUsefulReps (n_reps) are how many
	// mutants each evaluated seed spawns.
	UsefulReps    int
	NonUsefulReps int
	// UsefulDist (u_dist) and NonUsefulDist (n_dist) bound the
	// per-dimension mutation frame: the step magnitude is drawn
	// uniformly from the interval.
	UsefulDist    [2]float64
	NonUsefulDist [2]float64
	// Restart is the iteration cadence of random restarts, which
	// prevent localization around the initial seeds.
	Restart int
	// DecayIter and Decay drive the ε-greedy transition: every
	// DecayIter iterations, ε ← Decay·ε, shifting probability mass
	// from plain EE mutation to boundary-based mutation.
	DecayIter int
	Decay     float64
	// Epsilon is the initial ε (1 = all plain EE at the start).
	Epsilon float64
	// Boundary enables boundary-based mutation. With it false the
	// schedule is the plain exploit-and-explore baseline of §IV-A1
	// regardless of ε decay (the Fig. 4 contrast and our schedule
	// ablation).
	Boundary bool
	// MaxEvals, when positive, bounds the number of debloat tests
	// (seed evaluations) — the "number of runs" budget.
	MaxEvals int
	// Seed seeds the schedule's random source, making runs
	// reproducible.
	Seed int64
	// Workers bounds the worker pool that runs debloat tests
	// concurrently within a batch. Zero or negative resolves to
	// runtime.GOMAXPROCS(0). The worker count changes only wall-clock
	// time: for a fixed Seed the campaign outcome is bit-identical at
	// any Workers value. Workers > 1 requires an Evaluator that is
	// safe for concurrent use.
	Workers int
	// Witnesses enables inclusion-provenance recording: for every
	// index the campaign covers, Result.Witnesses remembers the seed
	// (by ordinal into Result.Seeds) whose debloat test first observed
	// it. Recording happens in the sequential merge phase, so it is
	// deterministic and does not perturb the campaign at any worker
	// count; it costs one map entry per covered index.
	Witnesses bool
	// OnCoverage, when non-nil, is called with each round's coverage
	// snapshot as it is recorded — the live-telemetry hook the
	// `kondo -status-addr` endpoint subscribes through. It runs on the
	// campaign's sequential merge goroutine after the round's point is
	// appended to Result.Coverage; it must not block for long and must
	// not call back into the Fuzzer.
	OnCoverage func(CoveragePoint)
}

// DefaultConfig returns the §V-B configuration: u_reps=8, n_reps=5,
// max_iter=2000, stop_iter=500, u_dist=[5,15], n_dist=[30,50],
// decay=0.97 every 200 iterations, ε starting at 1, boundary-based
// mutation enabled.
func DefaultConfig() Config {
	return Config{
		InitialSeeds:  20,
		MaxIter:       2000,
		StopIter:      500,
		Diameter:      20,
		UsefulReps:    8,
		NonUsefulReps: 5,
		UsefulDist:    [2]float64{5, 15},
		NonUsefulDist: [2]float64{30, 50},
		Restart:       250,
		DecayIter:     200,
		Decay:         0.97,
		Epsilon:       1,
		Boundary:      true,
	}
}

func (c Config) validate() error {
	if c.InitialSeeds <= 0 {
		return fmt.Errorf("fuzz: InitialSeeds must be positive")
	}
	if c.MaxIter <= 0 {
		return fmt.Errorf("fuzz: MaxIter must be positive")
	}
	if c.UsefulReps < 0 || c.NonUsefulReps < 0 {
		return fmt.Errorf("fuzz: negative mutation reps")
	}
	if c.UsefulDist[0] > c.UsefulDist[1] || c.NonUsefulDist[0] > c.NonUsefulDist[1] {
		return fmt.Errorf("fuzz: mutation distance interval inverted")
	}
	if c.Decay <= 0 || c.Decay > 1 {
		return fmt.Errorf("fuzz: Decay must be in (0,1]")
	}
	if c.Epsilon < 0 || c.Epsilon > 1 {
		return fmt.Errorf("fuzz: Epsilon must be in [0,1]")
	}
	if c.Diameter <= 0 {
		return fmt.Errorf("fuzz: Diameter must be positive")
	}
	return nil
}
