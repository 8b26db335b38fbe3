package prov

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/array"
	"repro/internal/atomicfile"
	"repro/internal/fuzz"
	"repro/internal/geom"
	"repro/internal/hull"
)

// SeedEntry is one evaluated parameter valuation, as retained in the
// index.
type SeedEntry struct {
	V      []float64 `json:"v"`
	Useful bool      `json:"useful"`
}

// InclusionIndex is the serialized inclusion-provenance index of one
// debloating run: the record of *why* each index kept in a debloated
// file survived carving. It joins the three layers of evidence the
// pipeline produces — the carved hull set ℍ (which region kept the
// index), the fuzz campaign's witness map (which debloat test first
// observed an index), and the seed log (which parameter valuation
// that test ran with) — into one queryable artifact, surfaced by
// `kondo explain`. Witness facts are stored as parallel arrays sorted
// by linear index position — compact, deterministic to marshal, and
// binary-searchable.
type InclusionIndex struct {
	// Tool identifies the producer.
	Tool string `json:"tool"`
	// Program and Dataset identify what was debloated.
	Program string `json:"program"`
	Dataset string `json:"dataset"`
	// Dims are the data array extents the index positions refer to.
	Dims []int `json:"dims"`
	// Granularity ("chunk" or "element") and Chunk mirror the debloat
	// manifest; at chunk granularity an index can be kept with no
	// containing hull, because its chunk overlaps one.
	Granularity string `json:"granularity,omitempty"`
	Chunk       []int  `json:"chunk,omitempty"`
	// Hulls are the carved hulls as vertex lists (manifest format).
	Hulls [][][]float64 `json:"hulls"`
	// Seeds are the campaign's evaluated valuations in schedule order.
	Seeds []SeedEntry `json:"seeds"`
	// WitnessLins and WitnessSeeds are parallel arrays: for each
	// directly observed linear index position, the ordinal into Seeds
	// of the debloat test that first covered it. Sorted by position.
	WitnessLins  []int64 `json:"witness_lins"`
	WitnessSeeds []int   `json:"witness_seeds"`

	space array.Space  // derived from Dims on first use
	hulls []*hull.Hull // rebuilt lazily
}

// New assembles an inclusion index from pipeline outputs. The
// witnesses map comes from fuzz.Result.Witnesses (requires
// fuzz.Config.Witnesses); seeds from fuzz.Result.Seeds.
func New(program, dataset string, space array.Space, granularity string, chunk []int,
	hulls []*hull.Hull, seeds []fuzz.SeedRecord, witnesses map[int64]int) *InclusionIndex {

	idx := &InclusionIndex{
		Tool:        "kondo-repro",
		Program:     program,
		Dataset:     dataset,
		Dims:        space.Dims(),
		Granularity: granularity,
		Chunk:       append([]int(nil), chunk...),
		Hulls:       hull.Encode(hulls),
	}
	for _, s := range seeds {
		idx.Seeds = append(idx.Seeds, SeedEntry{V: append([]float64(nil), s.V...), Useful: s.Useful})
	}
	lins := make([]int64, 0, len(witnesses))
	for lin := range witnesses {
		lins = append(lins, lin)
	}
	sort.Slice(lins, func(i, j int) bool { return lins[i] < lins[j] })
	idx.WitnessLins = lins
	idx.WitnessSeeds = make([]int, len(lins))
	for i, lin := range lins {
		idx.WitnessSeeds[i] = witnesses[lin]
	}
	return idx
}

// Save writes the index as JSON.
func (x *InclusionIndex) Save(path string) error {
	data, err := json.MarshalIndent(x, "", "  ")
	if err != nil {
		return fmt.Errorf("prov: encoding index: %w", err)
	}
	err = atomicfile.Write(path, 0o644, func(f *os.File) error {
		_, err := f.Write(append(data, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("prov: writing index: %w", err)
	}
	return nil
}

// Load reads an index written by Save.
func Load(path string) (*InclusionIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("prov: reading index: %w", err)
	}
	x, err := decodeIndex(data)
	if err != nil {
		return nil, fmt.Errorf("prov: index %s: %w", path, err)
	}
	return x, nil
}

// decodeIndex decodes an index's JSON bytes.
func decodeIndex(data []byte) (*InclusionIndex, error) {
	x := &InclusionIndex{}
	if err := json.Unmarshal(data, x); err != nil {
		return nil, fmt.Errorf("decoding: %w", err)
	}
	if len(x.WitnessLins) != len(x.WitnessSeeds) {
		return nil, fmt.Errorf("%d witness positions but %d seed ordinals",
			len(x.WitnessLins), len(x.WitnessSeeds))
	}
	return x, nil
}

// Space returns the array space the index positions refer to.
func (x *InclusionIndex) Space() (array.Space, error) {
	if x.space.Size() == 0 {
		s, err := array.NewSpace(x.Dims...)
		if err != nil {
			return array.Space{}, fmt.Errorf("prov: index dims: %w", err)
		}
		x.space = s
	}
	return x.space, nil
}

func (x *InclusionIndex) rebuiltHulls() ([]*hull.Hull, error) {
	if x.hulls != nil || len(x.Hulls) == 0 {
		return x.hulls, nil
	}
	hulls, err := hull.Decode(x.Hulls)
	if err != nil {
		return nil, fmt.Errorf("prov: index %w", err)
	}
	x.hulls = hulls
	return hulls, nil
}

// Attribution explains why one index of the debloated file was kept.
type Attribution struct {
	// Index and Lin are the queried position.
	Index array.Index `json:"index"`
	Lin   int64       `json:"lin"`
	// Hull is the ordinal of the first carved hull containing the
	// index, or -1 when no hull contains it (possible at chunk
	// granularity, where a chunk is kept whole if any hull overlaps
	// it).
	Hull int `json:"hull"`
	// HullVertices is the containing hull's vertex count (0 if none).
	HullVertices int `json:"hull_vertices,omitempty"`
	// Witnessed reports whether a debloat test directly observed this
	// index. When false, Seed/SeedValue refer to the nearest witnessed
	// index (NearestLin) — the access that pulled the surrounding
	// region into a hull.
	Witnessed  bool  `json:"witnessed"`
	NearestLin int64 `json:"nearest_lin,omitempty"`
	// Seed is the ordinal (into the index's seed log) of the
	// attributing debloat test, -1 when the campaign recorded no
	// witnesses at all.
	Seed int `json:"seed"`
	// SeedValue is that test's parameter valuation; Useful its
	// verdict.
	SeedValue []float64 `json:"seed_value,omitempty"`
	Useful    bool      `json:"useful,omitempty"`
	// Note is the human-readable explanation.
	Note string `json:"note"`
}

// Explain attributes one array index to the hull and debloat test
// that caused its inclusion.
func (x *InclusionIndex) Explain(ix array.Index) (*Attribution, error) {
	space, err := x.Space()
	if err != nil {
		return nil, err
	}
	lin, err := space.Linear(ix)
	if err != nil {
		return nil, fmt.Errorf("prov: %w", err)
	}
	att := &Attribution{Index: append(array.Index(nil), ix...), Lin: lin, Hull: -1, Seed: -1}

	hulls, err := x.rebuiltHulls()
	if err != nil {
		return nil, err
	}
	p := make(geom.Point, len(ix))
	for k, v := range ix {
		p[k] = float64(v)
	}
	for i, h := range hulls {
		if h.Contains(p) {
			att.Hull = i
			att.HullVertices = h.NumVertices()
			break
		}
	}

	// Witness lookup: exact, else nearest by linear distance.
	n := len(x.WitnessLins)
	if n > 0 {
		pos := sort.Search(n, func(i int) bool { return x.WitnessLins[i] >= lin })
		if pos < n && x.WitnessLins[pos] == lin {
			att.Witnessed = true
			att.Seed = x.WitnessSeeds[pos]
		} else {
			best := -1
			if pos < n {
				best = pos
			}
			if pos > 0 && (best < 0 || lin-x.WitnessLins[pos-1] <= x.WitnessLins[best]-lin) {
				best = pos - 1
			}
			att.NearestLin = x.WitnessLins[best]
			att.Seed = x.WitnessSeeds[best]
		}
	}
	if att.Seed >= 0 && att.Seed < len(x.Seeds) {
		att.SeedValue = x.Seeds[att.Seed].V
		att.Useful = x.Seeds[att.Seed].Useful
	}

	switch {
	case att.Witnessed && att.Hull >= 0:
		att.Note = fmt.Sprintf("index %v was accessed by debloat test #%d (v=%v) and is inside hull %d",
			ix, att.Seed, att.SeedValue, att.Hull)
	case att.Witnessed:
		att.Note = fmt.Sprintf("index %v was accessed by debloat test #%d (v=%v); no carved hull contains it (kept at %s granularity)",
			ix, att.Seed, att.SeedValue, x.granularityName())
	case att.Hull >= 0 && att.Seed >= 0:
		att.Note = fmt.Sprintf("index %v was never directly accessed; it is inside hull %d, whose nearest observed access (lin %d) came from debloat test #%d (v=%v) — convex over-approximation kept it",
			ix, att.Hull, att.NearestLin, att.Seed, att.SeedValue)
	case att.Hull >= 0:
		att.Note = fmt.Sprintf("index %v is inside hull %d; the index carries no witness map, so the originating debloat test is unknown",
			ix, att.Hull)
	case att.Seed >= 0:
		att.Note = fmt.Sprintf("index %v is outside every carved hull; at %s granularity it was kept because its chunk overlaps a hull — nearest observed access (lin %d) came from debloat test #%d (v=%v)",
			ix, x.granularityName(), att.NearestLin, att.Seed, att.SeedValue)
	default:
		att.Note = fmt.Sprintf("index %v is outside every carved hull and the index carries no witness map — it was likely not kept by this run", ix)
	}
	return att, nil
}

func (x *InclusionIndex) granularityName() string {
	if x.Granularity == "" {
		return "element"
	}
	return x.Granularity
}
