package trace

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/ioevent"
	"repro/internal/sdf"
)

// ResolveIndices converts audited byte ranges of a data file into the
// set of array indices they cover, using the dataset's self-describing
// metadata. This is the offset→index half of the bijection Kondo
// maintains between index tuples and byte offsets (paper §IV-C).
//
// Each range adds the index runs sdf.Dataset.IndexRuns finds for it,
// so the work follows the runs, not the elements. Ranges may include
// non-data bytes (the header and metadata reads issued when opening
// the file); those bytes are ignored. Partial element coverage counts
// the element as accessed: a system call that read any byte of an
// element observed that element.
func ResolveIndices(ds *sdf.Dataset, ranges []ioevent.Interval) (*array.IndexSet, error) {
	set := array.NewIndexSet(ds.Space())
	var err error
	for _, r := range ranges {
		ds.IndexRuns(r.Start, r.End, func(first, last int64) {
			if _, aerr := set.AddRun(first, last); aerr != nil && err == nil {
				err = fmt.Errorf("trace: resolve range [%d, %d): %w", r.Start, r.End, aerr)
			}
		})
	}
	if err != nil {
		return nil, err
	}
	return set, nil
}

// AccessedIndices resolves the complete audited access set of the
// named file (merged across processes) against the dataset stored in
// it.
func AccessedIndices(store *ioevent.Store, fileName string, ds *sdf.Dataset) (*array.IndexSet, error) {
	return ResolveIndices(ds, store.FileRanges(fileName))
}
