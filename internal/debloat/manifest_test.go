package debloat

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/array"
	"repro/internal/carve"
	"repro/internal/geom"
	"repro/internal/hull"
)

func twoHulls(t *testing.T) []*hull.Hull {
	t.Helper()
	a, err := hull.New([]geom.Point{
		geom.NewPoint(0, 0), geom.NewPoint(10, 0), geom.NewPoint(0, 10), geom.NewPoint(10, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := hull.New([]geom.Point{
		geom.NewPoint(40, 40), geom.NewPoint(50, 40), geom.NewPoint(40, 50), geom.NewPoint(50, 50),
	})
	if err != nil {
		t.Fatal(err)
	}
	return []*hull.Hull{a, b}
}

func TestManifestSaveLoadRoundTrip(t *testing.T) {
	hulls := twoHulls(t)
	stats := Stats{OriginalBytes: 1000, DebloatedBytes: 300, KeptIndices: 220}
	m := NewManifest("CS2", "data", []int{64, 64}, "chunk", []int{8, 8}, hulls, stats, 1500)

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Program != "CS2" || back.Dataset != "data" || back.Granularity != "chunk" {
		t.Errorf("metadata wrong: %+v", back)
	}
	if len(back.Hulls) != 2 || back.KeptIndices != 220 || back.Evaluations != 1500 {
		t.Errorf("payload wrong: %+v", back)
	}
	if back.OriginalBytes != 1000 || back.DebloatedBytes != 300 {
		t.Errorf("sizes wrong: %+v", back)
	}

	rebuilt, err := back.RebuildHulls()
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != 2 {
		t.Fatalf("rebuilt %d hulls", len(rebuilt))
	}
	for i, h := range rebuilt {
		if h.NumVertices() != hulls[i].NumVertices() {
			t.Errorf("hull %d vertex count %d != %d", i, h.NumVertices(), hulls[i].NumVertices())
		}
	}
}

// TestManifestRebuildsExactVertexLists carves a 3-D set and requires
// the manifest round trip (NewManifest, Save, LoadManifest,
// RebuildHulls) to reproduce every hull's vertex list exactly, order
// included: hull.New lists 3-D vertices in lexicographic order, so a
// rebuilt hull does not reorder the saved list.
func TestManifestRebuildsExactVertexLists(t *testing.T) {
	space := array.MustSpace(40, 40, 40)
	set := array.NewIndexSet(space)
	for _, c := range [][3]int{{8, 9, 10}, {30, 28, 7}} {
		space.Each(func(ix array.Index) bool {
			d2 := 0
			for k, v := range ix {
				d2 += (v - c[k]) * (v - c[k])
			}
			if d2 <= 36 {
				set.Add(ix.Clone())
			}
			return true
		})
	}
	hulls, _, err := carve.CarveStats(context.Background(), set, carve.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest("p", "d", space.Dims(), "chunk", []int{8, 8, 8}, hulls, Stats{}, 0)
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := back.RebuildHulls()
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != len(hulls) {
		t.Fatalf("rebuilt %d hulls, carved %d", len(rebuilt), len(hulls))
	}
	for i, h := range rebuilt {
		got, want := h.Vertices(), hulls[i].Vertices()
		if len(got) != len(want) {
			t.Fatalf("hull %d: rebuilt %d vertices, carved %d", i, len(got), len(want))
		}
		for j := range got {
			if !got[j].Equal(want[j]) {
				t.Fatalf("hull %d vertex %d: rebuilt %v, carved %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestManifestCovers(t *testing.T) {
	m := NewManifest("p", "d", []int{64, 64}, "element", nil, twoHulls(t), Stats{}, 0)
	cases := []struct {
		ix   array.Index
		want bool
	}{
		{array.NewIndex(5, 5), true},
		{array.NewIndex(45, 45), true},
		{array.NewIndex(25, 25), false}, // between the hulls
		{array.NewIndex(60, 60), false},
	}
	for _, c := range cases {
		got, err := m.Covers(c.ix)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Covers(%v) = %v, want %v", c.ix, got, c.want)
		}
	}
}

func TestManifestMatchesCarvedSubset(t *testing.T) {
	// A manifest built from carver output must cover exactly the
	// rasterized approximation.
	space := array.MustSpace(48, 48)
	obs := array.NewIndexSet(space)
	for r := 0; r < 12; r++ {
		for c := 0; c < 12; c++ {
			obs.Add(array.NewIndex(r, c))
		}
	}
	hulls, _, err := carve.CarveStats(context.Background(), obs, carve.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raster, _, err := carve.RasterizeStats(context.Background(), hulls, space, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest("p", "d", space.Dims(), "chunk", []int{8, 8}, hulls, Stats{}, 0)
	space.Each(func(ix array.Index) bool {
		covered, err := m.Covers(ix)
		if err != nil {
			t.Fatal(err)
		}
		if covered != raster.Contains(ix) {
			t.Fatalf("Covers(%v) = %v, raster = %v", ix, covered, raster.Contains(ix))
		}
		return true
	})
}

func TestLoadManifestErrors(t *testing.T) {
	if _, err := LoadManifest(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing manifest should error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFileHelper(bad, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(bad); err == nil {
		t.Error("malformed manifest should error")
	}
}

func writeFileHelper(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
