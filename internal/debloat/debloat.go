// Package debloat materializes the debloated data subset D_Θ (paper
// Def. 1): given the approximated index subset I'_Θ produced by the
// carver, it writes a new self-describing data file that keeps only
// the chunks containing approved indices, plus a manifest describing
// what was carved. It also provides the user-side runtime that serves
// reads from the debloated file, surfaces the "data missing" exception
// for carved-away accesses, and can optionally recover missing offsets
// from a remote source (paper §VI).
package debloat

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/sdf"
)

// Stats summarizes one debloating materialization — the quantities
// behind Fig. 9's data-reduction numbers.
type Stats struct {
	// OriginalBytes and DebloatedBytes are the stored data-region
	// sizes before and after carving.
	OriginalBytes, DebloatedBytes int64
	// TotalChunks and KeptChunks count the chunk table.
	TotalChunks, KeptChunks int64
	// KeptIndices is |I'_Θ|.
	KeptIndices int
}

// Reduction returns the fraction of data bytes removed.
func (s Stats) Reduction() float64 {
	if s.OriginalBytes == 0 {
		return 0
	}
	return 1 - float64(s.DebloatedBytes)/float64(s.OriginalBytes)
}

// WriteSubset writes a debloated copy of one dataset of the source
// file. The output dataset is chunked with the given chunk shape
// (which becomes the debloating granularity: a chunk is kept iff it
// contains at least one approved index), carrying the same values for
// all kept elements.
func WriteSubset(srcPath, dstPath, dataset string, approx *array.IndexSet, chunk []int) (Stats, error) {
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

	cl, err := array.NewChunkedLayout(space, ds.DType(), chunk)
	if err != nil {
		return stats, err
	}

	// Which chunks hold approved indices? Each run is walked one
	// chunk-wide stretch of a row at a time; the callback cannot fail.
	keep := make(map[int64]bool)
	_ = eachStretch(space, approx, chunk[len(chunk)-1], func(ix array.Index, _ int) error {
		chunkLin, _, _ := cl.Locate(ix) // ix lies in space by construction
		keep[chunkLin] = true
		return nil
	})

	w := sdf.NewWriter(dstPath)
	dw, err := w.CreateDataset(dataset, space, ds.DType(), chunk)
	if err != nil {
		return stats, err
	}
	if err := stampProvenance(dw, "chunk", approx.Len()); err != nil {
		return stats, err
	}
	// Copy values of kept chunks only: the writer stages a chunk on its
	// first write, so skipped chunks take no memory and are omitted
	// from the file.
	grid := cl.Grid()
	var copyErr error
	grid.Each(func(cc array.Index) bool {
		lin, err := cl.ChunkLinear(cc)
		if err != nil {
			copyErr = err
			return false
		}
		if !keep[lin] {
			return true
		}
		copyErr = copyChunk(ds, dw, cc, chunk)
		return copyErr == nil
	})
	if copyErr != nil {
		return stats, copyErr
	}
	if err := dw.OmitChunksExcept(keep); err != nil {
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
		TotalChunks:    cl.NumChunks(),
		KeptChunks:     int64(len(keep)),
		KeptIndices:    approx.Len(),
	}
	return stats, nil
}

// eachStretch walks set's runs over space in stretches that stay
// inside one row and one width-aligned block of it, calling fn with
// each stretch's first index, reused between calls, and its length. It
// stops at, and returns, fn's first error.
func eachStretch(space array.Space, set *array.IndexSet, width int, fn func(ix array.Index, n int) error) error {
	ix := make(array.Index, space.Rank())
	last := len(ix) - 1
	var err error
	set.EachRun(func(lo, hi int64) bool {
		for lin := lo; lin <= hi && err == nil; {
			rem := lin
			for k := last; k >= 0; k-- {
				d := int64(space.Dim(k))
				ix[k] = int(rem % d)
				rem /= d
			}
			n := min(int64(width-ix[last]%width), int64(space.Dim(last)-ix[last]), hi-lin+1)
			err = fn(ix, int(n))
			lin += n
		}
		return err == nil
	})
	return err
}

// copyChunk copies the logical elements of chunk cc, clipped to the
// space, from the source dataset into the staged destination.
func copyChunk(src *sdf.Dataset, dst *sdf.DatasetWriter, cc array.Index, chunk []int) error {
	start, count := sdf.ChunkSlab(src.Space(), chunk, cc)
	vals, err := src.ReadHyperslab(sdf.Slab(start, count))
	if err != nil {
		return fmt.Errorf("debloat: reading chunk %v: %w", cc, err)
	}
	return dst.SetSlab(start, count, vals)
}

// stampProvenance attaches the debloating provenance attributes to a
// staged output dataset.
func stampProvenance(dw *sdf.DatasetWriter, granularity string, kept int) error {
	for _, kv := range [][2]string{
		{"kondo.debloated", "true"},
		{"kondo.granularity", granularity},
		{"kondo.kept_indices", fmt.Sprint(kept)},
	} {
		if err := dw.SetAttr(kv[0], kv[1]); err != nil {
			return err
		}
	}
	return nil
}
