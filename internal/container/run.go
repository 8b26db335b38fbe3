package container

import (
	"context"
	"fmt"

	"repro/internal/debloat"
	"repro/internal/sdf"
	"repro/internal/workload"
)

// RunReport is the outcome of executing a container's entry program.
type RunReport struct {
	// Misses counts reads that touched carved-away data (0 for an
	// un-debloated image).
	Misses int64
	// Recovered reports whether misses were served by a fetcher.
	Recovered bool
}

// Run executes the image's entry program with the given parameter
// values against the image's data file. The entrypoint is resolved to
// a benchmark program via workload.ByName. If the data file is
// debloated and fetcher is non-nil, carved-away reads are recovered
// through it; with a nil fetcher they surface the data-missing
// exception (paper §III, §VI).
func (img *Image) Run(v []float64, dataset string, fetcher debloat.Fetcher) (*RunReport, error) {
	dataPath, err := img.Spec.DataFile()
	if err != nil {
		return nil, err
	}
	hostPath, err := img.HostPath(dataPath)
	if err != nil {
		return nil, err
	}
	f, err := sdf.Open(hostPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, err := f.Dataset(dataset)
	if err != nil {
		return nil, err
	}
	prog, err := workload.ForSpace(img.Spec.Entrypoint, ds.Space().Dims())
	if err != nil {
		return nil, fmt.Errorf("container: resolving entrypoint: %w", err)
	}

	rt := debloat.NewRuntimeContext(context.TODO(), ds, fetcher)
	if err := prog.Run(v, &workload.Env{Acc: rt}); err != nil {
		return &RunReport{Misses: rt.Misses()}, err
	}
	return &RunReport{Misses: rt.Misses(), Recovered: fetcher != nil && rt.Misses() > 0}, nil
}
