package ioevent

import (
	"fmt"
	"math"

	"repro/internal/array"
)

// Interval is a half-open byte range [Start, End). The ranges a set
// returns are non-empty and pairwise disjoint (merging happens on
// insert).
type Interval struct {
	Start, End int64
}

// Len returns the number of bytes the interval covers.
func (iv Interval) Len() int64 { return iv.End - iv.Start }

// byteSpace is the one-dimensional space of file byte offsets an
// IntervalSet ranges over.
var byteSpace = array.MustSpace(math.MaxInt)

// IntervalSet is a set of byte offsets kept as sorted maximal runs, an
// array.IndexSet over byte positions. Inserting a range that overlaps
// or touches stored ranges coalesces them, exactly as Kondo "merges
// events that overlap in accessed offset ranges" (paper §IV-C): the
// paper's example merges (0,110) with (90,120) and keeps (130,150)
// separate.
type IntervalSet struct {
	runs *array.IndexSet
}

// NewIntervalSet returns an empty set.
func NewIntervalSet() *IntervalSet {
	return &IntervalSet{runs: array.NewIndexSet(byteSpace)}
}

// AddRun inserts the half-open range [start, start+size), merging with
// any overlapping or adjacent stored ranges. Empty, negative and
// overflowing ranges are rejected.
func (s *IntervalSet) AddRun(start, size int64) error {
	switch {
	case size <= 0:
		return fmt.Errorf("ioevent: invalid range size %d", size)
	case start < 0:
		return fmt.Errorf("ioevent: negative range start %d", start)
	case start > math.MaxInt64-size:
		return fmt.Errorf("ioevent: range at %d of %d bytes ends past the largest offset", start, size)
	}
	_, err := s.runs.AddRun(start, start+size-1)
	return err
}

// Ranges returns the stored ranges in ascending order.
func (s *IntervalSet) Ranges() []Interval {
	out := make([]Interval, 0, s.runs.RunCount())
	s.runs.EachRun(func(lo, hi int64) bool {
		out = append(out, Interval{Start: lo, End: hi + 1})
		return true
	})
	return out
}

// UnionWith inserts every range of o into s.
func (s *IntervalSet) UnionWith(o *IntervalSet) { s.runs.UnionWith(o.runs) }
