package debloat

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/sdf"
)

// writeMerkleOrigin materializes a small chunked origin to embed.
func writeMerkleOrigin(t testing.TB, dims, chunk []int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "origin.sdf")
	space := array.MustSpace(dims...)
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset("data", space, array.Float64, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestManifestMerkleRoundTrip(t *testing.T) {
	origin := writeMerkleOrigin(t, []int{32, 32}, []int{8, 8})
	m := NewManifest("p", "data", []int{32, 32}, "chunk", []int{8, 8}, twoHulls(t), Stats{}, 0)
	if err := m.EmbedMerkle(origin); err != nil {
		t.Fatal(err)
	}
	if m.Merkle == nil || m.Merkle.Algo != sdf.MerkleAlgo || m.Merkle.Leaves != 16 {
		t.Fatalf("embedded section = %+v", m.Merkle)
	}

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := back.MerkleSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec == nil {
		t.Fatal("round-tripped manifest lost its merkle section")
	}
	if spec.RootHex() != m.Merkle.Root || spec.Leaves != 16 {
		t.Fatalf("spec = %+v, want root %s", spec, m.Merkle.Root)
	}
	// The embedded root equals a direct rebuild over the same bytes.
	f, err := sdf.Open(origin)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := f.Dataset("data")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := sdf.BuildDatasetMerkle(ds, sdf.ServingChunk(ds))
	if err != nil {
		t.Fatal(err)
	}
	if tree.SpecOf(ds).RootHex() != spec.RootHex() {
		t.Fatal("manifest root differs from a direct rebuild")
	}
}

// TestManifestWithoutMerkleStaysLoadable pins backward compatibility:
// a manifest written before verified recovery (no "merkle" key) loads
// and reports no spec, without error.
func TestManifestWithoutMerkleStaysLoadable(t *testing.T) {
	m := NewManifest("p", "data", []int{16, 16}, "chunk", []int{8, 8}, twoHulls(t), Stats{}, 0)
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "merkle") {
		t.Fatal("merkle key written without EmbedMerkle")
	}
	back, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := back.MerkleSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec != nil {
		t.Fatalf("spec from merkle-less manifest = %+v, want nil", spec)
	}
}

// TestManifestMerkleTamperFailsAtLoad pins that a manipulated merkle
// section is rejected when the spec is decoded — before any fetch
// could trust it — for every field an attacker could touch.
func TestManifestMerkleTamperFailsAtLoad(t *testing.T) {
	origin := writeMerkleOrigin(t, []int{32, 32}, []int{8, 8})
	m := NewManifest("p", "data", []int{32, 32}, "chunk", []int{8, 8}, twoHulls(t), Stats{}, 0)
	if err := m.EmbedMerkle(origin); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}

	mutate := func(t *testing.T, change func(*Manifest)) {
		t.Helper()
		back, err := LoadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		change(back)
		// Round-trip through JSON like a real edited file would.
		data, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		edited := &Manifest{}
		if err := json.Unmarshal(data, edited); err != nil {
			t.Fatal(err)
		}
		if _, err := edited.MerkleSpec(); err == nil {
			t.Fatal("tampered merkle section accepted")
		}
	}
	t.Run("truncated root", func(t *testing.T) {
		mutate(t, func(m *Manifest) { m.Merkle.Root = m.Merkle.Root[:20] })
	})
	t.Run("garbage root", func(t *testing.T) {
		mutate(t, func(m *Manifest) { m.Merkle.Root = strings.Repeat("zz", 32) })
	})
	t.Run("wrong algo", func(t *testing.T) {
		mutate(t, func(m *Manifest) { m.Merkle.Algo = "md5/legacy" })
	})
	t.Run("zero leaves", func(t *testing.T) {
		mutate(t, func(m *Manifest) { m.Merkle.Leaves = 0 })
	})
	t.Run("chunk mismatch", func(t *testing.T) {
		// A chunk shape that cannot produce the claimed leaf count over
		// the manifest's dims is inconsistent geometry.
		mutate(t, func(m *Manifest) { m.Merkle.Chunk = []int{32, 32} })
	})
	t.Run("empty chunk", func(t *testing.T) {
		mutate(t, func(m *Manifest) { m.Merkle.Chunk = nil })
	})
	t.Run("wrapped grid", func(t *testing.T) { mutate(t, wrapGrid) })
}
