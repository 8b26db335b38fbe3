package viz

import (
	"context"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/carve"
	"repro/internal/fuzz"
	"repro/internal/geom"
	"repro/internal/hull"
)

func TestIndexSetSVG(t *testing.T) {
	space := array.MustSpace(16, 16)
	set := array.NewIndexSet(space)
	set.Add(array.NewIndex(0, 0))
	set.Add(array.NewIndex(15, 15))
	var b strings.Builder
	if err := IndexSetSVG(&b, set, "test map"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Error("not a well-formed SVG document")
	}
	if strings.Count(out, "<rect") != 3 { // background + 2 cells
		t.Errorf("expected 3 rects, got %d", strings.Count(out, "<rect"))
	}
	if !strings.Contains(out, "test map") {
		t.Error("missing title")
	}
	// 3D spaces are rejected.
	set3 := array.NewIndexSet(array.MustSpace(4, 4, 4))
	if err := IndexSetSVG(&b, set3, "x"); err == nil {
		t.Error("3D space should be rejected")
	}
}

func TestScatterSVG(t *testing.T) {
	seeds := []fuzz.SeedRecord{
		{V: []float64{10, 10}, Useful: true},
		{V: []float64{50, 50}, Useful: false},
		{V: []float64{1}, Useful: true}, // short vector: skipped
	}
	var b strings.Builder
	if err := ScatterSVG(&b, seeds, 0, 100, 0, 100, "scatter"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "<circle") != 2 {
		t.Errorf("expected 2 circles, got %d", strings.Count(out, "<circle"))
	}
	if !strings.Contains(out, colorUseful) || !strings.Contains(out, colorNonUseful) {
		t.Error("missing class colors")
	}
	if err := ScatterSVG(&b, seeds, 5, 5, 0, 10, "bad"); err == nil {
		t.Error("degenerate box should error")
	}
}

func TestHullsSVG(t *testing.T) {
	space := array.MustSpace(32, 32)
	set := array.NewIndexSet(space)
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			set.Add(array.NewIndex(r, c))
		}
	}
	hulls, _, err := carve.CarveStats(context.Background(), set, carve.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := HullsSVG(&b, set, hulls, "hulls"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "<polygon") {
		t.Error("missing hull outline")
	}
	if !strings.Contains(out, colorApprox) || !strings.Contains(out, colorAccessed) {
		t.Error("missing raster layers")
	}
}

func TestHullsSVGDegenerateHull(t *testing.T) {
	// A single-point hull draws no polygon but must not fail.
	space := array.MustSpace(8, 8)
	set := array.NewIndexSet(space)
	set.Add(array.NewIndex(3, 3))
	h, err := hull.New([]geom.Point{geom.NewPoint(3, 3)})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := HullsSVG(&b, set, []*hull.Hull{h}, "point"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "<polygon") {
		t.Error("single-point hull should draw no polygon")
	}
}
