package trace

import (
	"context"
	"time"

	"repro/internal/array"
	"repro/internal/ioevent"
	"repro/internal/obs"
	"repro/internal/sdf"
)

// Audited is what one Audit observed.
type Audited struct {
	// Ranges are the byte ranges this run's process read from the data
	// file, merged (paper §IV-C): its own (pid, file) record, so other
	// runs on the same tracer, reading the same file, add nothing.
	Ranges []ioevent.Interval
	// Indices is I_v: Ranges resolved to the dataset's indices.
	Indices *array.IndexSet
	// Elapsed is the open→run→close window. Resolution falls outside
	// it, so traced and untraced windows compare the same work.
	Elapsed time.Duration
}

// Audit runs one debloat test (paper Def. 2). It opens the data file
// at path through t under a fresh process, looks up the dataset, runs
// fn over it, closes the file, and resolves the byte ranges that
// process read to the indices the run read. Events go to t's store,
// and to its log when one is teed.
//
// A nil t runs the same open→run→close window untraced and resolves
// nothing: the baseline of the §V-D6 audit overhead. Errors from fn
// are returned as they are.
func Audit(ctx context.Context, t *Tracer, path, dataset string, fn func(*sdf.Dataset) error) (*Audited, error) {
	start := time.Now()
	sp := obs.Start(ctx, "trace.open")
	var tf *File
	var f *sdf.File
	var err error
	if t == nil {
		f, err = sdf.Open(path)
	} else if tf, err = t.Open(t.NewProcess(), path); err == nil {
		if f, err = sdf.OpenFrom(tf); err != nil {
			tf.Close()
		}
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	ds, err := f.Dataset(dataset)
	if err == nil {
		sp = obs.Start(ctx, "trace.run")
		err = fn(ds)
		sp.End()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res := &Audited{Elapsed: time.Since(start)}
	if t == nil {
		return res, nil
	}

	sp = obs.Start(ctx, "trace.resolve")
	defer sp.End()
	res.Ranges = t.store.Lookup(tf.id)
	if res.Indices, err = ResolveIndices(ds, res.Ranges); err != nil {
		return nil, err
	}
	if sp != nil {
		sp.Arg("ranges", len(res.Ranges)).Arg("indices", res.Indices.Len())
	}
	return res, nil
}
