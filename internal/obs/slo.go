package obs

// SLO engine for the serving plane: sliding-window latency quantiles
// (p50/p95/p99/p999) estimated from the existing cumulative latency
// histograms, per-objective latency/error targets, and error-budget
// burn accounting. The engine never touches the request hot path — it
// snapshots cumulative instrument values on a tick, and windowed
// deltas between snapshots yield the recent distribution (DESIGN.md
// §12). Exposed as kondo_slo_* instruments and the /sloz JSON body.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// SLOSource provides the cumulative counters one objective is
// evaluated over. Requests/Errors may be nil (treated as zero); the
// latency histogram is required.
type SLOSource struct {
	// Requests returns the cumulative request count. When nil, the
	// histogram's observation count is used.
	Requests func() int64
	// Errors returns the cumulative error count (may be nil).
	Errors func() int64
	// Latency is the cumulative request-latency histogram in seconds.
	Latency *Histogram
}

// SLOObjective is one serving objective: "Target fraction of Name's
// requests complete within LatencyBound and without error".
type SLOObjective struct {
	// Name identifies the objective (by convention the endpoint name).
	Name string
	// Quantile is the headline quantile exported for dashboards (e.g.
	// 0.99); it does not affect budget accounting.
	Quantile float64
	// LatencyBound is the good-event latency threshold.
	LatencyBound time.Duration
	// Target is the required good-event fraction in (0,1), e.g. 0.99.
	// The error budget of a window is (1-Target) x window requests.
	Target float64
	// Source supplies the counters.
	Source SLOSource
}

// sloSample is one cumulative snapshot of an objective's source.
type sloSample struct {
	at       time.Time
	requests int64
	errors   int64
	count    int64   // histogram observations
	buckets  []int64 // per-bucket (non-cumulative) counts
}

// sloState is one objective plus its retained snapshot window.
type sloState struct {
	obj     SLOObjective
	bounds  []float64
	samples []sloSample
}

func (st *sloState) snapshot(now time.Time) sloSample {
	s := sloSample{
		at:      now,
		count:   st.obj.Source.Latency.Count(),
		buckets: st.obj.Source.Latency.BucketCounts(),
	}
	if st.obj.Source.Requests != nil {
		s.requests = st.obj.Source.Requests()
	} else {
		s.requests = s.count
	}
	if st.obj.Source.Errors != nil {
		s.errors = st.obj.Source.Errors()
	}
	return s
}

// SLO evaluates a set of objectives over a sliding window. Tick it
// periodically (Run does); Report and the registered gauges read the
// window between the oldest retained snapshot and a live one.
type SLO struct {
	window time.Duration

	mu   sync.Mutex
	objs []*sloState

	ticks  *Counter
	breach *Counter
}

// DefaultSLOWindow is the sliding-window length when NewSLO gets a
// non-positive one.
const DefaultSLOWindow = 30 * time.Second

// NewSLO returns an engine over the given objectives. Objectives with
// a nil latency source are dropped; quantile defaults to 0.99, target
// to 0.99.
func NewSLO(window time.Duration, objectives ...SLOObjective) *SLO {
	if window <= 0 {
		window = DefaultSLOWindow
	}
	s := &SLO{window: window}
	for _, o := range objectives {
		if o.Source.Latency == nil {
			continue
		}
		if o.Quantile <= 0 || o.Quantile >= 1 {
			o.Quantile = 0.99
		}
		if o.Target <= 0 || o.Target >= 1 {
			o.Target = 0.99
		}
		s.objs = append(s.objs, &sloState{obj: o, bounds: o.Source.Latency.Bounds()})
	}
	return s
}

// Tick snapshots every objective's source and evicts snapshots that
// fell out of the window (keeping one older snapshot as the window's
// base). Safe for concurrent use with Report.
func (s *SLO) Tick(now time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	cutoff := now.Add(-s.window)
	for _, st := range s.objs {
		st.samples = append(st.samples, st.snapshot(now))
		// Keep the newest sample at or before the cutoff as the base so
		// the window always spans (approximately) the full length.
		i := 0
		for i < len(st.samples)-1 && !st.samples[i+1].at.After(cutoff) {
			i++
		}
		st.samples = st.samples[i:]
	}
	s.mu.Unlock()
	s.ticks.Inc()
}

// Run ticks the engine every step until ctx ends. A non-positive step
// defaults to window/10.
func (s *SLO) Run(ctx context.Context, step time.Duration) {
	if s == nil {
		return
	}
	if step <= 0 {
		step = s.window / 10
	}
	t := time.NewTicker(step)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			s.Tick(now)
		}
	}
}

// budgetUsedCap bounds the reported burn fraction so a zero-budget
// window with bad events stays JSON-encodable instead of +Inf.
const budgetUsedCap = 1e6

// SLOObjectiveReport is one objective's windowed evaluation, shaped
// for the /sloz JSON body (durations in seconds).
type SLOObjectiveReport struct {
	Name                string  `json:"name"`
	Quantile            float64 `json:"quantile"`
	LatencyBoundSeconds float64 `json:"latency_bound_seconds"`
	Target              float64 `json:"target"`

	// Window tallies (deltas across the sliding window).
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// BadEvents counts requests that missed the objective: responses
	// slower than the bound plus error responses (an erroring slow
	// request may count twice — the accounting is deliberately
	// conservative).
	BadEvents int64 `json:"bad_events"`

	// Latency quantiles estimated from the windowed histogram delta.
	P50Seconds  float64 `json:"p50_seconds"`
	P95Seconds  float64 `json:"p95_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	P999Seconds float64 `json:"p999_seconds"`
	// QuantileSeconds is the headline Quantile's estimate.
	QuantileSeconds float64 `json:"quantile_seconds"`

	// Attainment is the good-event fraction (1 on an empty window).
	Attainment float64 `json:"attainment"`
	// ErrorBudgetUsed is BadEvents / ((1-Target) x Requests): >= 1
	// means the window's budget is exhausted (capped at 1e6).
	ErrorBudgetUsed float64 `json:"error_budget_used"`
	Exhausted       bool    `json:"exhausted"`
}

// SLOReport is the engine's point-in-time evaluation of every
// objective — the /sloz response body.
type SLOReport struct {
	WindowSeconds float64              `json:"window_seconds"`
	GeneratedAt   string               `json:"generated_at"`
	Objectives    []SLOObjectiveReport `json:"objectives"`
}

// Exhausted reports whether any objective's window budget is burned.
func (r SLOReport) Exhausted() bool {
	for _, o := range r.Objectives {
		if o.Exhausted {
			return true
		}
	}
	return false
}

// Objective returns one objective's report by name (zero value when
// absent).
func (r SLOReport) Objective(name string) SLOObjectiveReport {
	for _, o := range r.Objectives {
		if o.Name == name {
			return o
		}
	}
	return SLOObjectiveReport{Name: name}
}

// Report evaluates every objective over the window ending now: a live
// snapshot against the oldest retained tick (or zero, i.e. lifetime,
// before the first tick). Nil-safe (returns a zero report).
func (s *SLO) Report(now time.Time) SLOReport {
	if s == nil {
		return SLOReport{}
	}
	rep := SLOReport{
		WindowSeconds: s.window.Seconds(),
		GeneratedAt:   now.UTC().Format(time.RFC3339Nano),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	exhausted := false
	for _, st := range s.objs {
		head := st.snapshot(now)
		var base sloSample
		if len(st.samples) > 0 {
			base = st.samples[0]
		}
		o := evalObjective(st.obj, st.bounds, base, head)
		if o.Exhausted {
			exhausted = true
		}
		rep.Objectives = append(rep.Objectives, o)
	}
	if exhausted {
		s.breach.Inc()
	}
	return rep
}

// evalObjective computes one objective's report from the delta between
// two cumulative snapshots.
func evalObjective(obj SLOObjective, bounds []float64, base, head sloSample) SLOObjectiveReport {
	o := SLOObjectiveReport{
		Name:                obj.Name,
		Quantile:            obj.Quantile,
		LatencyBoundSeconds: obj.LatencyBound.Seconds(),
		Target:              obj.Target,
		Requests:            head.requests - base.requests,
		Errors:              head.errors - base.errors,
		Attainment:          1,
	}
	delta := make([]int64, len(head.buckets))
	var total int64
	for i := range head.buckets {
		d := head.buckets[i]
		if i < len(base.buckets) {
			d -= base.buckets[i]
		}
		if d < 0 {
			d = 0
		}
		delta[i] = d
		total += d
	}
	o.P50Seconds = HistogramQuantile(bounds, delta, 0.50)
	o.P95Seconds = HistogramQuantile(bounds, delta, 0.95)
	o.P99Seconds = HistogramQuantile(bounds, delta, 0.99)
	o.P999Seconds = HistogramQuantile(bounds, delta, 0.999)
	o.QuantileSeconds = HistogramQuantile(bounds, delta, obj.Quantile)

	slow := total - histCumulativeAt(bounds, delta, obj.LatencyBound.Seconds())
	if slow < 0 {
		slow = 0
	}
	o.BadEvents = slow + o.Errors
	if o.Requests > 0 {
		good := o.Requests - o.BadEvents
		if good < 0 {
			good = 0
		}
		o.Attainment = float64(good) / float64(o.Requests)
		allowed := (1 - obj.Target) * float64(o.Requests)
		switch {
		case allowed > 0:
			o.ErrorBudgetUsed = math.Min(float64(o.BadEvents)/allowed, budgetUsedCap)
		case o.BadEvents > 0:
			o.ErrorBudgetUsed = budgetUsedCap
		}
		o.Exhausted = o.ErrorBudgetUsed >= 1
	}
	return o
}

// histCumulativeAt estimates how many of the histogram's observations
// are <= x, interpolating linearly within the bucket containing x
// (counts has len(bounds)+1 entries, overflow last).
func histCumulativeAt(bounds []float64, counts []int64, x float64) int64 {
	var cum int64
	lo := 0.0
	for i, b := range bounds {
		if x >= b {
			cum += counts[i]
			lo = b
			continue
		}
		// x falls inside bucket i spanning (lo, b].
		if b > lo {
			cum += int64(math.Round(float64(counts[i]) * (x - lo) / (b - lo)))
		}
		return cum
	}
	// x is past the last bound: everything counts, including overflow.
	if len(counts) > len(bounds) {
		cum += counts[len(bounds)]
	}
	return cum
}

// HistogramQuantile estimates the q-quantile of a fixed-bucket
// histogram from its upper bounds and per-bucket (non-cumulative)
// counts — Prometheus-style linear interpolation within the containing
// bucket. Observations in the overflow bucket clamp to the last bound.
// Returns 0 when the histogram is empty.
func HistogramQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	lo := 0.0
	for i, b := range bounds {
		c := counts[i]
		if float64(cum)+float64(c) >= rank {
			if c == 0 {
				return b
			}
			return lo + (b-lo)*(rank-float64(cum))/float64(c)
		}
		cum += c
		lo = b
	}
	// The quantile lands in the overflow bucket: the histogram cannot
	// resolve past its last bound.
	return bounds[len(bounds)-1]
}

// Register exposes the engine on reg as kondo_slo_* instruments: per
// objective the headline quantile, attainment, budget burn, window
// request count and an exhausted flag (all evaluated at exposition
// time), plus engine tick/breach counters. Nil-safe on both sides.
func (s *SLO) Register(reg *Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.SetHelp("kondo_slo_quantile_seconds", "Windowed latency quantile per objective (q label is the quantile).")
	reg.SetHelp("kondo_slo_attainment", "Windowed good-event fraction per objective (1 = SLO fully met).")
	reg.SetHelp("kondo_slo_error_budget_used", "Fraction of the window's error budget burned (>= 1 = exhausted).")
	reg.SetHelp("kondo_slo_window_requests", "Requests observed in the sliding window, per objective.")
	reg.SetHelp("kondo_slo_exhausted", "1 while the objective's window budget is exhausted.")
	reg.SetHelp("kondo_slo_ticks_total", "SLO engine snapshot ticks.")
	reg.SetHelp("kondo_slo_breaches_total", "Report evaluations that found at least one exhausted objective.")
	s.ticks = reg.Counter("kondo_slo_ticks_total")
	s.breach = reg.Counter("kondo_slo_breaches_total")
	report := func() SLOReport { return s.Report(time.Now()) }
	s.mu.Lock()
	objs := append([]*sloState(nil), s.objs...)
	s.mu.Unlock()
	for _, st := range objs {
		name := st.obj.Name
		l := L("objective", name)
		reg.GaugeFunc("kondo_slo_quantile_seconds", func() float64 {
			return report().Objective(name).QuantileSeconds
		}, l, L("q", fmt.Sprintf("%g", st.obj.Quantile)))
		reg.GaugeFunc("kondo_slo_attainment", func() float64 {
			return report().Objective(name).Attainment
		}, l)
		reg.GaugeFunc("kondo_slo_error_budget_used", func() float64 {
			return report().Objective(name).ErrorBudgetUsed
		}, l)
		reg.GaugeFunc("kondo_slo_window_requests", func() float64 {
			return float64(report().Objective(name).Requests)
		}, l)
		reg.GaugeFunc("kondo_slo_exhausted", func() float64 {
			if report().Objective(name).Exhausted {
				return 1
			}
			return 0
		}, l)
	}
}
