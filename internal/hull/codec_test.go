package hull

import (
	"strings"
	"testing"

	"repro/internal/geom"
)

// Encode writes each hull's vertices and Decode rebuilds the same
// hulls; no hulls encode to nil (JSON null), and a vertex list that
// builds no hull fails with its position.
func TestCodecRoundTrip(t *testing.T) {
	square, err := New([]geom.Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := New([]geom.Point{{0, 0, 0}, {3, 0, 0}, {0, 3, 0}, {0, 0, 3}, {1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	lists := Encode([]*Hull{square, cube})
	if len(lists) != 2 || len(lists[0]) != 4 || len(lists[1]) != 4 {
		t.Fatalf("Encode = %v, want 4 vertices per hull", lists)
	}
	back, err := Decode(lists)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range []*Hull{square, cube} {
		got, want := back[i].Vertices(), h.Vertices()
		if len(got) != len(want) {
			t.Fatalf("hull %d: %d vertices after a round trip, want %d", i, len(got), len(want))
		}
		for j := range want {
			if !got[j].Equal(want[j]) {
				t.Errorf("hull %d vertex %d = %v, want %v", i, j, got[j], want[j])
			}
		}
	}
	// The encoding owns its coordinates.
	lists[0][0][0] = 99
	if square.Vertices()[0][0] == 99 {
		t.Error("Encode shares vertex storage with the hull")
	}

	if Encode(nil) != nil {
		t.Error("no hulls should encode to nil")
	}
	if _, err := Decode([][][]float64{lists[1], {}}); err == nil || !strings.HasPrefix(err.Error(), "hull 1: ") {
		t.Errorf("Decode of an empty vertex list = %v, want an error naming hull 1", err)
	}
}
