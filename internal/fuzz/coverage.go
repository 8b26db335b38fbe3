package fuzz

import (
	"encoding/json"
	"io"
	"os"
	"time"

	"repro/internal/array"
	"repro/internal/atomicfile"
)

// CoveragePoint is one per-round snapshot of a campaign's progress
// toward the true accessed-index set I_Θ. Points are recorded after
// the sequential merge phase of each schedule round, so recording is
// deterministic and never perturbs the campaign (the RNG stream and
// batch composition are untouched).
type CoveragePoint struct {
	// Round is the 1-based schedule round (= batch number).
	Round int `json:"round"`
	// Iterations and Evaluations are the cumulative schedule
	// iterations and successful debloat tests after this round.
	Iterations  int `json:"iterations"`
	Evaluations int `json:"evaluations"`
	// Covered is |IS| after this round — the cumulative covered-index
	// count. It is non-decreasing across the series.
	Covered int `json:"covered"`
	// New is the number of indices this round added to IS.
	New int `json:"new"`
	// DimCoverage is, per array dimension, the fraction of that
	// dimension's extent with at least one covered index — a cheap
	// directional signal for which axes the campaign has explored.
	DimCoverage []float64 `json:"dim_coverage"`
	// Saturation is the convergence estimate in [0, 1]: 0 while the
	// campaign discovers new indices at its peak per-test rate,
	// approaching 1 as rounds stop finding anything new (see
	// CoverageSeries.saturation for the estimator).
	Saturation float64 `json:"saturation"`
	// ElapsedMS is wall-clock milliseconds since the campaign start.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// CoverageSeries is the structured coverage trajectory of one fuzz
// campaign: the per-round snapshots plus the geometry needed to
// interpret them. It marshals to the JSON schema consumed by
// `kondo -coverage-out`, `kondo-viz -coverage`, and the /statusz
// endpoint (DESIGN.md §9).
type CoverageSeries struct {
	// Dims are the data array extents the coverage is measured over.
	Dims []int `json:"dims"`
	// SpaceSize is the total index count of the array space.
	SpaceSize int64 `json:"space_size"`
	// Points are the per-round snapshots in round order.
	Points []CoveragePoint `json:"points"`
}

// saturationWindow is the trailing-round window of the convergence
// estimator.
const saturationWindow = 8

// covTracker accumulates the per-dimension coverage and discovery-rate
// state a running campaign feeds the series from.
type covTracker struct {
	space    array.Space
	seen     [][]bool // per dim, per coordinate: any covered index there
	dimCount []int
	series   *CoverageSeries
	peakRate float64 // peak windowed per-evaluation discovery rate
	start    time.Time
}

func newCovTracker(space array.Space, start time.Time) *covTracker {
	dims := space.Dims()
	seen := make([][]bool, len(dims))
	for k, d := range dims {
		seen[k] = make([]bool, d)
	}
	return &covTracker{
		space:    space,
		seen:     seen,
		dimCount: make([]int, len(dims)),
		series: &CoverageSeries{
			Dims:      dims,
			SpaceSize: space.Size(),
		},
		start: start,
	}
}

// observeRun marks the newly covered linear positions [lo, hi].
func (t *covTracker) observeRun(lo, hi int64) {
	for lin := lo; lin <= hi; lin++ {
		r := lin
		for k := len(t.seen) - 1; k >= 0; k-- {
			d := int64(len(t.seen[k]))
			if c := r % d; !t.seen[k][c] {
				t.seen[k][c] = true
				t.dimCount[k]++
			}
			r /= d
		}
	}
}

// snapshot appends (and returns) the coverage point closing one round.
func (t *covTracker) snapshot(round, iterations, evaluations, covered, added int) CoveragePoint {
	dimCov := make([]float64, len(t.dimCount))
	for k, n := range t.dimCount {
		dimCov[k] = float64(n) / float64(t.space.Dim(k))
	}
	p := CoveragePoint{
		Round:       round,
		Iterations:  iterations,
		Evaluations: evaluations,
		Covered:     covered,
		New:         added,
		DimCoverage: dimCov,
		ElapsedMS:   float64(time.Since(t.start)) / float64(time.Millisecond),
	}
	t.series.Points = append(t.series.Points, p)
	p.Saturation = t.saturation()
	t.series.Points[len(t.series.Points)-1].Saturation = p.Saturation
	return p
}

// saturation is the convergence estimator: the windowed discovery rate
// (new indices per evaluated test over the last saturationWindow
// rounds) relative to the peak windowed rate the campaign has reached,
// inverted into [0, 1]. While the campaign discovers at its historical
// best the estimate is 0; when a full window of rounds finds nothing
// new it reaches 1. The estimator is scale-free (rates are per test,
// not per second), so it is comparable across worker counts and
// machine speeds.
func (t *covTracker) saturation() float64 {
	pts := t.series.Points
	if len(pts) == 0 {
		return 0
	}
	lo := len(pts) - saturationWindow
	if lo < 0 {
		lo = 0
	}
	var added int
	for _, p := range pts[lo:] {
		added += p.New
	}
	// Evaluations is cumulative; the window's test count is the delta.
	evals := pts[len(pts)-1].Evaluations
	if lo > 0 {
		evals -= pts[lo-1].Evaluations
	}
	if evals <= 0 {
		return 0
	}
	rate := float64(added) / float64(evals)
	if rate > t.peakRate {
		t.peakRate = rate
	}
	if t.peakRate == 0 {
		return 0
	}
	s := 1 - rate/t.peakRate
	if s < 0 {
		s = 0
	} else if s > 1 {
		s = 1
	}
	return s
}

// Final returns the last recorded point (zero value for an empty
// series).
func (s *CoverageSeries) Final() CoveragePoint {
	if s == nil || len(s.Points) == 0 {
		return CoveragePoint{}
	}
	return s.Points[len(s.Points)-1]
}

// Saturation returns the final convergence estimate of the series.
func (s *CoverageSeries) Saturation() float64 { return s.Final().Saturation }

// WriteJSON writes the series as indented JSON.
func (s *CoverageSeries) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile writes the series as JSON to path, replacing any file at
// path all at once.
func (s *CoverageSeries) WriteFile(path string) error {
	return atomicfile.Write(path, 0o666, func(f *os.File) error { return s.WriteJSON(f) })
}

// LoadCoverageSeries reads a series written by WriteFile (the
// `kondo -coverage-out` artifact consumed by `kondo-viz -coverage`).
func LoadCoverageSeries(path string) (*CoverageSeries, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &CoverageSeries{}
	if err := json.Unmarshal(raw, s); err != nil {
		return nil, err
	}
	return s, nil
}
