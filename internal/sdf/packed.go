package sdf

import (
	"fmt"
	"sort"

	"repro/internal/array"
)

// Packed layout: element-granular debloating. Where the chunked layout
// keeps or drops whole chunks, a packed dataset stores exactly the
// approved elements, as runs of consecutive row-major linear positions
// packed back to back. This realizes offset-level debloating at its
// finest granularity — the paper's §VI observes that chunks are the
// practical unit of access, but the format supports both so the
// granularity trade-off is measurable (see the debloat package's
// benchmarks).
//
// On-disk metadata per run: the starting linear position, the run
// length in elements, and the absolute file offset of the run's first
// element.

// packRun is one maximal run of kept consecutive linear positions.
type packRun struct {
	startLin int64 // first row-major linear element position
	count    int64 // elements in the run
	off      int64 // absolute file offset of the run's data
}

// packRunsFromSet converts a kept-index set into its sorted, maximal
// runs (offsets unassigned).
func packRunsFromSet(keep *array.IndexSet) []packRun {
	runs := make([]packRun, 0, keep.RunCount())
	keep.EachRun(func(lo, hi int64) bool {
		runs = append(runs, packRun{startLin: lo, count: hi - lo + 1})
		return true
	})
	return runs
}

// PackElements switches the staged dataset to the packed layout,
// keeping exactly the elements of keep. The dataset must have been
// created contiguous (chunk shape nil); the packed run table replaces
// the chunk table.
func (dw *DatasetWriter) PackElements(keep *array.IndexSet) error {
	sd := dw.sd
	if sd.meta.Layout != layoutContiguous {
		return fmt.Errorf("sdf: PackElements requires a contiguous staged dataset, %q is %v",
			sd.meta.Name, sd.meta.Layout)
	}
	if keep.Space().Size() != sd.space.Size() {
		return fmt.Errorf("sdf: keep set space %v does not match dataset space %v",
			keep.Space(), sd.space)
	}
	sd.packedRuns = packRunsFromSet(keep)
	sd.meta.Layout = layoutPacked
	sd.meta.Debloated = true
	return nil
}

// packedIndex provides binary-searched lookups over a dataset's runs.
type packedIndex struct {
	runs []packRun // sorted by startLin; offsets ascend in the same order
	elem int64
}

// fileOffset maps a linear element position to its stored offset; ok
// is false when the position was carved away.
func (pi *packedIndex) fileOffset(lin int64) (off int64, ok bool) {
	i := sort.Search(len(pi.runs), func(i int) bool {
		return pi.runs[i].startLin+pi.runs[i].count > lin
	})
	if i >= len(pi.runs) || lin < pi.runs[i].startLin {
		return 0, false
	}
	r := pi.runs[i]
	return r.off + (lin-r.startLin)*pi.elem, true
}
