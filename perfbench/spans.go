package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors span timestamps; it is never written after start-up.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// span is one timed call into a program module, recorded from the
// benchmark's side of the call. Calls too frequent to store one span
// each (traced ReadAt, fetch-cache hits) are folded into the span that
// issued them as a count, a duration and a byte total.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	CallNS int64  `json:"call_ns,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	// Link ties a server span to the client fetch that caused it.
	Link int64 `json:"link,omitempty"`

	rec *recorder
}

// recorder keeps every span of a traced run in memory; write dumps
// them when the run ends. A nil *recorder records nothing, so the
// untraced path shares code with the traced one at the cost of a nil
// check.
type recorder struct {
	mu    sync.Mutex
	spans []*span
}

// start opens a span; parent nil makes it a root.
func (r *recorder) start(name string, op int, parent *span) *span {
	if r == nil {
		return nil
	}
	s := &span{Parent: -1, Op: op, Name: name, rec: r}
	if parent != nil {
		s.Parent = parent.ID
	}
	r.mu.Lock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	s.Start = nowNS()
	return s
}

// end closes the span. It takes the recorder lock so spans ended on a
// server goroutine are ordered before the run's analysis.
func (s *span) end() {
	if s == nil {
		return
	}
	t := nowNS()
	s.rec.mu.Lock()
	s.End = t
	s.rec.mu.Unlock()
}

// addCall folds one frequent call into the span.
func (s *span) addCall(d time.Duration, bytes int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.Calls, 1)
	atomic.AddInt64(&s.CallNS, int64(d))
	atomic.AddInt64(&s.Bytes, bytes)
}

// foldedLayer names the layer whose calls a span folds in.
var foldedLayer = map[string]string{
	"trace.open":   "trace.read",
	"sdf.run":      "trace.read",
	"debloat.read": "dataserve.hit",
}

// write dumps the spans as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// opSpans groups finished spans by op, in recording order.
func (r *recorder) opSpans() map[int][]*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int][]*span)
	for _, s := range r.spans {
		out[s.Op] = append(out[s.Op], s)
	}
	return out
}

// link attaches each serve.request span, recorded on a server
// goroutine with Parent -2, to the dataserve.miss span of the same
// fetch.
func (r *recorder) link() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	miss := make(map[int64]*span)
	for _, s := range r.spans {
		if s.Name == "dataserve.miss" {
			miss[s.Link] = s
		}
	}
	for _, s := range r.spans {
		if s.Parent != -2 {
			continue
		}
		m := miss[s.Link]
		if m == nil {
			return fmt.Errorf("serve.request span %d matches no dataserve.miss span", s.ID)
		}
		s.Parent, s.Op = m.ID, m.Op
	}
	return nil
}

// interval is a half-open [lo, hi) range of nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals.
func unionLen(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
			continue
		}
		if x.hi > cur.hi {
			cur.hi = x.hi
		}
	}
	return total + cur.hi - cur.lo
}

// clip bounds a child's interval to its parent's: a server span can
// end a few microseconds after the client call it answered.
func clip(c, p *span) interval {
	lo, hi := c.Start, c.End
	if lo < p.Start {
		lo = p.Start
	}
	if hi > p.End {
		hi = p.End
	}
	if hi < lo {
		hi = lo
	}
	return interval{lo, hi}
}

// selfTime is a span's duration minus the part its children and its
// folded calls cover.
func selfTime(s *span, kids []*span) int64 {
	iv := make([]interval, len(kids))
	for i, c := range kids {
		iv[i] = clip(c, s)
	}
	self := s.End - s.Start - unionLen(iv) - s.CallNS
	if self < 0 {
		return 0
	}
	return self
}

// shares attributes one op's wall time to layers. Each span contributes
// its self time and its folded calls. Where children of one parent run
// concurrently (the fuzz pool's evaluators), each instant of the
// covered time is split evenly among the children running then, and a
// child's subtree is scaled by the share it got, so the layer shares
// of an op sum exactly to its root span's duration. The root's own
// self time is the residual: op time no layer span accounts for.
func shares(spans []*span) (layers map[string]float64, root *span) {
	kids := make(map[int][]*span)
	for _, s := range spans {
		if s.Parent < 0 {
			root = s
			continue
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	if root == nil {
		return nil, nil
	}
	layers = make(map[string]float64)
	var walk func(s *span, f float64)
	walk = func(s *span, f float64) {
		ks := kids[s.ID]
		name := s.Name
		if s == root {
			name = "residual"
		}
		layers[name] += f * float64(selfTime(s, ks))
		if s.CallNS > 0 {
			layers[foldedLayer[s.Name]] += f * float64(s.CallNS)
		}
		for i, share := range concurrentShares(s, ks) {
			if d := ks[i].End - ks[i].Start; d > 0 {
				walk(ks[i], f*share/float64(d))
			}
		}
	}
	walk(root, 1)
	return layers, root
}

// concurrentShares splits the time a parent's children cover among
// them: each instant goes in equal parts to the children running then.
// The shares sum to the union of the children's intervals.
func concurrentShares(parent *span, kids []*span) []float64 {
	type edge struct {
		t     int64
		delta int
		kid   int
	}
	edges := make([]edge, 0, 2*len(kids))
	for i, c := range kids {
		iv := clip(c, parent)
		edges = append(edges, edge{iv.lo, +1, i}, edge{iv.hi, -1, i})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].t != edges[b].t {
			return edges[a].t < edges[b].t
		}
		return edges[a].delta < edges[b].delta
	})
	out := make([]float64, len(kids))
	active := make(map[int]bool)
	var last int64
	for _, e := range edges {
		if n := len(active); n > 0 && e.t > last {
			part := float64(e.t-last) / float64(n)
			for k := range active {
				out[k] += part
			}
		}
		last = e.t
		if e.delta > 0 {
			active[e.kid] = true
		} else {
			delete(active, e.kid)
		}
	}
	return out
}
