package debloat

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/sdf"
)

// WritePacked writes an element-granular debloated copy of one dataset:
// the output keeps exactly the approved indices, stored as packed runs
// of consecutive elements. Compared to WriteSubset's chunk granularity
// this removes every byte outside I'_Θ — maximal reduction at the cost
// of a run table proportional to the subset's fragmentation. (Paper
// §VI notes chunks are the practical unit of access; both granularities
// are provided so the trade-off is measurable.)
func WritePacked(srcPath, dstPath, dataset string, approx *array.IndexSet) (Stats, error) {
	var stats Stats
	src, err := sdf.Open(srcPath)
	if err != nil {
		return stats, err
	}
	defer src.Close()
	ds, err := src.Dataset(dataset)
	if err != nil {
		return stats, err
	}
	space := ds.Space()
	if approx.Space().Size() != space.Size() || approx.Space().Rank() != space.Rank() {
		return stats, fmt.Errorf("debloat: approximation space %v does not match dataset space %v",
			approx.Space(), space)
	}

	w := sdf.NewWriter(dstPath)
	dw, err := w.CreateDataset(dataset, space, ds.DType(), nil)
	if err != nil {
		return stats, err
	}
	if err := stampProvenance(dw, "element", approx.Len()); err != nil {
		return stats, err
	}
	// Copy only the approved values, a row stretch of a run at a time;
	// unkept elements never reach the output file regardless of staged
	// contents.
	last := space.Rank() - 1
	count := make([]int, space.Rank())
	for k := range count {
		count[k] = 1
	}
	if err := eachStretch(space, approx, space.Dim(last), func(ix array.Index, n int) error {
		count[last] = n
		vals, err := ds.ReadHyperslab(sdf.Slab(ix, count))
		if err != nil {
			return fmt.Errorf("debloat: reading %v: %w", ix, err)
		}
		return dw.SetSlab(ix, count, vals)
	}); err != nil {
		return stats, err
	}
	if err := dw.PackElements(approx); err != nil {
		return stats, err
	}
	if err := w.Close(); err != nil {
		return stats, err
	}

	out, err := sdf.Open(dstPath)
	if err != nil {
		return stats, err
	}
	defer out.Close()
	ods, err := out.Dataset(dataset)
	if err != nil {
		return stats, err
	}
	stats = Stats{
		OriginalBytes:  ds.StoredBytes(),
		DebloatedBytes: ods.StoredBytes(),
		KeptIndices:    approx.Len(),
	}
	return stats, nil
}
