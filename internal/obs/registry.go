package obs

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// registryKey carries a *Registry through a context.
type registryKey struct{}

// WithRegistry returns a context carrying reg; instrumented library
// code (fuzz, debloat) registers and updates instruments in it. A nil
// reg returns ctx unchanged.
func WithRegistry(ctx context.Context, reg *Registry) context.Context {
	if reg == nil {
		return ctx
	}
	return context.WithValue(ctx, registryKey{}, reg)
}

// RegistryOf returns the registry carried by ctx, or nil. A nil
// registry is usable: its getters return nil instruments whose
// methods are no-ops.
func RegistryOf(ctx context.Context) *Registry {
	reg, _ := ctx.Value(registryKey{}).(*Registry)
	return reg
}

// Kind is an instrument's type.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one name=value dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// L builds a Label; it reads well at call sites:
// reg.Counter("kondo_serve_requests_total", obs.L("endpoint", "chunk")).
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing integer. The zero value is
// ready to use; a nil *Counter is a valid no-op. A Counter may instead
// be backed by a callback (CounterFunc), in which case Inc/Add are
// no-ops.
type Counter struct {
	v  atomic.Int64
	fn func() int64
}

// Inc adds one. Nil-safe.
func (c *Counter) Inc() {
	if c != nil && c.fn == nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored — counters only go up).
// Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil && c.fn == nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil), consulting the callback
// for function counters.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	if c.fn != nil {
		return c.fn()
	}
	return c.v.Load()
}

// Gauge is a float value that can go up and down. A nil *Gauge is a
// valid no-op. A Gauge may instead be backed by a callback
// (GaugeFunc), in which case Set is a no-op.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64
}

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil && g.fn == nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on nil), consulting the callback
// for function gauges.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Bucket i counts
// observations v with v <= Bounds[i]; one extra overflow bucket
// counts the rest. A nil *Histogram is a valid no-op.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v ⇒ v <= bound
	// SearchFloat64s finds the first bound > v only when v is not
	// present; for exact matches it returns the bound's own index, so
	// the "v <= bound" bucket convention holds either way.
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	h.count.Add(1)
}

// Bounds returns the bucket upper bounds (nil on nil).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// BucketCounts returns the per-bucket (non-cumulative) counts,
// len(Bounds())+1 long with the overflow bucket last.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Count returns the total observation count (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// series is one registered instrument with its identity.
type series struct {
	name   string
	labels []Label // sorted by key
	kind   Kind

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry is a concurrent collection of named instruments. Getters
// are get-or-create: the first call registers the series, later calls
// return the same instrument, so hot paths can cache handles while
// cold paths just re-look them up. All methods are safe for
// concurrent use, and all are nil-safe: a nil *Registry hands out nil
// instruments whose methods no-op.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*series
	help   map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[string]*series),
		help:   make(map[string]string),
	}
}

// SetHelp attaches Prometheus # HELP text to a metric family name.
// Nil-safe.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// seriesKey canonicalizes name+labels; labels are sorted in place.
func seriesKey(name string, labels []Label) string {
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('\x00')
		b.WriteString(l.Key)
		b.WriteByte('\x01')
		b.WriteString(l.Value)
	}
	return b.String()
}

// lookup returns the series for key, or registers one built by mk.
// It panics when the name is already registered with another kind —
// that is a programming error, not a runtime condition.
func (r *Registry) lookup(name string, labels []Label, kind Kind, mk func() *series) *series {
	key := seriesKey(name, labels)
	r.mu.RLock()
	s, ok := r.series[key]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		s, ok = r.series[key]
		if !ok {
			s = mk()
			r.series[key] = s
		}
		r.mu.Unlock()
	}
	if s.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, s.kind, kind))
	}
	return s
}

// Counter returns (registering if needed) the counter series
// name{labels}. Nil-safe: a nil registry returns a nil counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, labels, KindCounter, func() *series {
		return &series{name: name, labels: labels, kind: KindCounter, c: &Counter{}}
	})
	return s.c
}

// Gauge returns (registering if needed) the gauge series
// name{labels}. Nil-safe.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(name, labels, KindGauge, func() *series {
		return &series{name: name, labels: labels, kind: KindGauge, g: &Gauge{}}
	})
	return s.g
}

// CounterFunc registers a counter whose value is computed by fn at
// exposition time — for mirroring an externally maintained monotonic
// count (an existing atomic) without double bookkeeping.
// Re-registering the same series replaces the callback. Nil-safe.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...Label) {
	if r == nil {
		return
	}
	s := r.lookup(name, labels, KindCounter, func() *series {
		return &series{name: name, labels: labels, kind: KindCounter, c: &Counter{}}
	})
	r.mu.Lock()
	s.c.fn = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge whose value is computed by fn at
// exposition time — for mirroring externally maintained state (cache
// sizes, build info) without double bookkeeping. Re-registering the
// same series replaces the callback. Nil-safe.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	s := r.lookup(name, labels, KindGauge, func() *series {
		return &series{name: name, labels: labels, kind: KindGauge, g: &Gauge{}}
	})
	r.mu.Lock()
	s.g.fn = fn
	r.mu.Unlock()
}

// Histogram returns (registering if needed) the histogram series
// name{labels} with the given bucket upper bounds (sorted copies are
// taken; an existing series keeps its original bounds). Nil-safe.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(name, labels, KindHistogram, func() *series {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		return &series{name: name, labels: labels, kind: KindHistogram,
			h: &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}}
	})
	return s.h
}

// snapshotSeries returns the registered series sorted by name then
// label set, for deterministic exposition.
func (r *Registry) snapshotSeries() []*series {
	r.mu.RLock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return labelString(out[i].labels) < labelString(out[j].labels)
	})
	return out
}

// labelString renders {k="v",...} (empty string for no labels).
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelStringWith renders labels plus one extra pair (for histogram
// le labels).
func labelStringWith(labels []Label, key, value string) string {
	all := make([]Label, 0, len(labels)+1)
	all = append(all, labels...)
	all = append(all, Label{Key: key, Value: value})
	return labelString(all)
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatFloat renders a float the Prometheus way.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every registered series in the Prometheus
// text exposition format (text/plain; version=0.0.4): # HELP/# TYPE
// headers per family, cumulative histogram buckets with le labels,
// _sum and _count series. Nil-safe (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()

	var b strings.Builder
	lastFamily := ""
	for _, s := range r.snapshotSeries() {
		if s.name != lastFamily {
			if h, ok := help[s.name]; ok {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.name, h)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, s.kind)
			lastFamily = s.name
		}
		switch s.kind {
		case KindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", s.name, labelString(s.labels), s.c.Value())
		case KindGauge:
			fmt.Fprintf(&b, "%s%s %s\n", s.name, labelString(s.labels), formatFloat(s.g.Value()))
		case KindHistogram:
			counts := s.h.BucketCounts()
			bounds := s.h.bounds
			cum := int64(0)
			for i, bound := range bounds {
				cum += counts[i]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name,
					labelStringWith(s.labels, "le", formatFloat(bound)), cum)
			}
			cum += counts[len(bounds)]
			fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name, labelStringWith(s.labels, "le", "+Inf"), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", s.name, labelString(s.labels), formatFloat(s.h.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", s.name, labelString(s.labels), s.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
