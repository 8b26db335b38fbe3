package debloat

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/hull"
)

// savedManifest writes an origin of the given shape, embeds its Merkle
// section into a manifest over one box hull, saves it, and returns the
// saved bytes.
func savedManifest(tb testing.TB, dims, chunk []int) []byte {
	tb.Helper()
	var corners []geom.Point
	for c := 0; c < 1<<len(dims); c++ {
		p := make(geom.Point, len(dims))
		for k := range dims {
			if c&(1<<k) != 0 {
				p[k] = float64(dims[k] / 2)
			}
		}
		corners = append(corners, p)
	}
	h, err := hull.New(corners)
	if err != nil {
		tb.Fatal(err)
	}
	m := NewManifest("p", "data", dims, "chunk", chunk, []*hull.Hull{h}, Stats{}, 1)
	if err := m.EmbedMerkle(writeMerkleOrigin(tb, dims, chunk)); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "manifest.json")
	if err := m.Save(path); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// wrapGrid rewrites m's geometry to a 3037000500×3037000500×4 array
// in 1×1×1 chunks with 581896768 leaves: the leaf count that grid's
// size wraps to in int64.
func wrapGrid(m *Manifest) {
	m.Dims = []int{3037000500, 3037000500, 4}
	m.Merkle.Chunk = []int{1, 1, 1}
	m.Merkle.Leaves = 581896768
}

// FuzzManifest decodes arbitrary bytes as a debloat manifest — what
// kondo-load -manifest reads from outside the process — and runs what
// a client does with one: its Merkle spec, its hulls, and a coverage
// query at the zero index. Each must return an error, never panic. The
// seeds are 2-D and 3-D manifests as Save writes them and the
// wrapped-grid manifest.
func FuzzManifest(f *testing.F) {
	two := savedManifest(f, []int{40, 24}, []int{16, 16})
	f.Add(two)
	f.Add(savedManifest(f, []int{9, 7, 5}, []int{4, 4, 4}))
	m, err := decodeManifest(two)
	if err != nil {
		f.Fatal(err)
	}
	wrapGrid(m)
	wrapped, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wrapped)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		m.MerkleSpec()
		m.RebuildHulls()
		m.Covers(make(array.Index, len(m.Dims)))
	})
}
