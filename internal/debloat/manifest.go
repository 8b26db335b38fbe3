package debloat

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/array"
	"repro/internal/atomicfile"
	"repro/internal/geom"
	"repro/internal/hull"
	"repro/internal/sdf"
)

// Manifest records how a debloated data file was produced: the carved
// hull set, the granularity, and the size accounting. It is the
// "audited information" of paper §VI that a container runtime can use
// — e.g. to decide, before touching the file, whether an access will
// need the remote-fetch path — and it makes the carved subset
// reproducible without re-running the fuzzer.
type Manifest struct {
	// Tool identifies the producer.
	Tool string `json:"tool"`
	// Program is the application the subset was carved for.
	Program string `json:"program"`
	// Dataset is the dataset name inside the data file.
	Dataset string `json:"dataset"`
	// Dims are the data array extents.
	Dims []int `json:"dims"`
	// Granularity is "chunk" or "element".
	Granularity string `json:"granularity"`
	// Chunk is the chunk shape for chunk-granular debloating.
	Chunk []int `json:"chunk,omitempty"`
	// Hulls are the carved convex hulls, as vertex lists.
	Hulls [][][]float64 `json:"hulls"`
	// KeptIndices is |I'_Θ|.
	KeptIndices int `json:"kept_indices"`
	// Evaluations is the number of debloat tests the fuzz campaign
	// ran.
	Evaluations int `json:"evaluations"`
	// OriginalBytes and DebloatedBytes mirror Stats.
	OriginalBytes  int64 `json:"original_bytes"`
	DebloatedBytes int64 `json:"debloated_bytes"`
	// Merkle, when present, anchors verified recovery: the root of a
	// SHA-256 Merkle tree over the ORIGINAL dataset's serving chunks,
	// plus the tree parameters a client needs to verify inclusion
	// proofs (DESIGN.md §13). The section is additive — old readers
	// skip the unknown key, and manifests written before it decode
	// with a nil pointer — so manifest compatibility is unchanged in
	// both directions.
	Merkle *MerkleSection `json:"merkle,omitempty"`
}

// MerkleSection is the manifest encoding of an sdf.MerkleSpec.
type MerkleSection struct {
	// Algo names the tree construction (sdf.MerkleAlgo).
	Algo string `json:"algo"`
	// Root is the tree root in lowercase hex.
	Root string `json:"root"`
	// Leaves is the serving-chunk (leaf) count.
	Leaves int64 `json:"leaves"`
	// Chunk is the serving chunk shape the tree was built over; with
	// the manifest's Dims it pins the full verification geometry.
	Chunk []int `json:"chunk"`
}

// EmbedMerkle builds the Merkle tree over the manifest's dataset in
// the ORIGINAL (pre-debloat) data file at dataPath — the bytes an
// origin server will later serve — and records its root and
// parameters in the manifest. Call it at debloat time, before the
// original is replaced by the carved file.
func (m *Manifest) EmbedMerkle(dataPath string) error {
	f, err := sdf.Open(dataPath)
	if err != nil {
		return fmt.Errorf("debloat: opening original for merkle: %w", err)
	}
	defer f.Close()
	ds, err := f.Dataset(m.Dataset)
	if err != nil {
		return fmt.Errorf("debloat: merkle dataset: %w", err)
	}
	chunk := sdf.ServingChunk(ds)
	tree, err := sdf.BuildDatasetMerkle(ds, chunk)
	if err != nil {
		return fmt.Errorf("debloat: building merkle tree: %w", err)
	}
	spec := tree.SpecOf(ds)
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("debloat: built merkle spec invalid: %w", err)
	}
	m.Merkle = &MerkleSection{
		Algo:   spec.Algo,
		Root:   spec.RootHex(),
		Leaves: spec.Leaves,
		Chunk:  append([]int(nil), spec.Chunk...),
	}
	return nil
}

// MerkleSpec decodes and validates the manifest's merkle section into
// the client's trusted verification spec. It returns (nil, nil) when
// the manifest has no section (pre-verification manifests stay
// loadable), and an error when the section is present but malformed or
// inconsistent with the manifest's own geometry — a tampered manifest
// must fail at load, not at first verified fetch.
func (m *Manifest) MerkleSpec() (*sdf.MerkleSpec, error) {
	if m.Merkle == nil {
		return nil, nil
	}
	root, err := sdf.ParseMerkleRoot(m.Merkle.Root)
	if err != nil {
		return nil, fmt.Errorf("debloat: manifest merkle section: %w", err)
	}
	spec := &sdf.MerkleSpec{
		Algo:   m.Merkle.Algo,
		Root:   root,
		Leaves: m.Merkle.Leaves,
		Dims:   append([]int(nil), m.Dims...),
		Chunk:  append([]int(nil), m.Merkle.Chunk...),
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("debloat: manifest merkle section: %w", err)
	}
	return spec, nil
}

// NewManifest assembles a manifest from pipeline outputs.
func NewManifest(program, dataset string, dims []int, granularity string, chunk []int,
	hulls []*hull.Hull, stats Stats, evaluations int) *Manifest {

	return &Manifest{
		Tool:           "kondo-repro",
		Program:        program,
		Dataset:        dataset,
		Dims:           append([]int(nil), dims...),
		Granularity:    granularity,
		Chunk:          append([]int(nil), chunk...),
		KeptIndices:    stats.KeptIndices,
		Evaluations:    evaluations,
		OriginalBytes:  stats.OriginalBytes,
		DebloatedBytes: stats.DebloatedBytes,
		Hulls:          hull.Encode(hulls),
	}
}

// Save writes the manifest as JSON, replacing any file at path all at
// once.
func (m *Manifest) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("debloat: encoding manifest: %w", err)
	}
	err = atomicfile.Write(path, 0o644, func(f *os.File) error {
		_, err := f.Write(append(data, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("debloat: writing manifest: %w", err)
	}
	return nil
}

// LoadManifest reads a manifest written by Save.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("debloat: reading manifest: %w", err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("debloat: decoding manifest %s: %w", path, err)
	}
	return m, nil
}

// decodeManifest decodes a manifest's JSON bytes.
func decodeManifest(data []byte) (*Manifest, error) {
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, err
	}
	return m, nil
}

// RebuildHulls reconstructs the hull objects from the manifest.
func (m *Manifest) RebuildHulls() ([]*hull.Hull, error) {
	hulls, err := hull.Decode(m.Hulls)
	if err != nil {
		return nil, fmt.Errorf("debloat: manifest %w", err)
	}
	return hulls, nil
}

// Covers reports whether the carved hull set contains the index — the
// manifest-level answer to "will this access need the remote-fetch
// path?".
func (m *Manifest) Covers(ix array.Index) (bool, error) {
	hulls, err := m.RebuildHulls()
	if err != nil {
		return false, err
	}
	p := make(geom.Point, len(ix))
	for k, v := range ix {
		p[k] = float64(v)
	}
	for _, h := range hulls {
		if h.Contains(p) {
			return true, nil
		}
	}
	return false, nil
}
