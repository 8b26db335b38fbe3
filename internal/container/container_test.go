package container

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/dataserve"
	"repro/internal/debloat"
	"repro/internal/sdf"
	"repro/internal/workload"
)

const sampleSpec = `
# Cross-stencil container (paper Fig. 2a)
FROM ubuntu:20.04
RUN apt-get install -y gcc
RUN apt-get install -y libhdf5-dev
ADD ./mnist.sdf /stencil/mnist.sdf
ADD ./notes.txt /stencil/notes.txt
PARAM [0-63, 0-63]
ENTRYPOINT ["CS2"]
CMD [1, 1, /stencil/mnist.sdf]
`

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	if spec.From != "ubuntu:20.04" {
		t.Errorf("From = %q", spec.From)
	}
	if len(spec.Runs) != 2 {
		t.Errorf("Runs = %v", spec.Runs)
	}
	if len(spec.Adds) != 2 || spec.Adds[0].Dst != "/stencil/mnist.sdf" {
		t.Errorf("Adds = %v", spec.Adds)
	}
	if len(spec.Params) != 2 || spec.Params[0].Lo != 0 || spec.Params[1].Hi != 63 {
		t.Errorf("Params = %v", spec.Params)
	}
	if spec.Entrypoint != "CS2" {
		t.Errorf("Entrypoint = %q", spec.Entrypoint)
	}
	df, err := spec.DataFile()
	if err != nil || df != "/stencil/mnist.sdf" {
		t.Errorf("DataFile = %q, %v", df, err)
	}
	dp, err := spec.DefaultParams()
	if err != nil || len(dp) != 2 || dp[0] != 1 || dp[1] != 1 {
		t.Errorf("DefaultParams = %v, %v", dp, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []string{
		"RUN x\nENTRYPOINT [\"CS2\"]",             // missing FROM
		"FROM a",                                  // missing ENTRYPOINT
		"FROM a\nENTRYPOINT [\"X\"]\nADD one",     // bad ADD
		"FROM a\nENTRYPOINT [\"X\"]\nPARAM 0-30",  // PARAM without brackets
		"FROM a\nENTRYPOINT [\"X\"]\nPARAM [5-2]", // inverted range
		"FROM a\nENTRYPOINT [\"X\"]\nBOGUS y",     // unknown instruction
	}
	for i, c := range cases {
		if _, err := ParseSpec(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestParamRangeWithFloats(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(
		"FROM a\nENTRYPOINT [\"X\"]\nPARAM [0-30, 300.00-1200.00, 0-50]"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Params) != 3 {
		t.Fatalf("Params = %v", spec.Params)
	}
	if spec.Params[1].Lo != 300 || spec.Params[1].Hi != 1200 {
		t.Errorf("float range parsed as %v", spec.Params[1])
	}
}

// buildTestImage creates a source dir with a CS2-compatible data file
// and builds the sample container.
func buildTestImage(t *testing.T) (*Image, string) {
	t.Helper()
	srcDir := t.TempDir()
	space := array.MustSpace(64, 64)
	w := sdf.NewWriter(filepath.Join(srcDir, "mnist.sdf"))
	dw, err := w.CreateDataset("data", space, array.Float64, nil)
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
	if err := os.WriteFile(filepath.Join(srcDir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	spec, err := ParseSpec(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	img, err := Build(spec, srcDir, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return img, srcDir
}

func TestBuildAndSize(t *testing.T) {
	img, _ := buildTestImage(t)
	files, err := img.Files()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("Files = %v", files)
	}
	size, err := img.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size < 64*64*8 {
		t.Errorf("Size = %d, want at least the data bytes", size)
	}
	if _, err := img.HostPath("/../escape"); err == nil {
		t.Error("path escape should be rejected")
	}
}

func TestRunOriginalImage(t *testing.T) {
	img, _ := buildTestImage(t)
	rep, err := img.Run([]float64{1, 1}, "data", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Misses != 0 {
		t.Errorf("original image run had %d misses", rep.Misses)
	}
}

func TestDebloatedImageEndToEnd(t *testing.T) {
	img, srcDir := buildTestImage(t)

	// Carve with the exact ground truth so every supported run works.
	p := workload.MustCS(2, 64)
	truth, err := workload.GroundTruth(p)
	if err != nil {
		t.Fatal(err)
	}
	deb, stats, err := img.DebloatData(t.TempDir(), "/stencil/mnist.sdf", "data", truth, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reduction() <= 0 {
		t.Errorf("Reduction = %v, want > 0", stats.Reduction())
	}
	origSize, _ := img.Size()
	debSize, _ := deb.Size()
	if debSize >= origSize {
		t.Errorf("debloated image %d not smaller than original %d", debSize, origSize)
	}

	// Supported runs behave identically (no misses).
	for _, v := range [][]float64{{1, 1}, {0, 5}, {3, 7}} {
		rep, err := deb.Run(v, "data", nil)
		if err != nil {
			t.Fatalf("run %v: %v", v, err)
		}
		if rep.Misses != 0 {
			t.Errorf("run %v: %d misses", v, rep.Misses)
		}
	}

	// A hand-carved smaller subset must miss, and recover with a
	// fetcher.
	small := array.NewIndexSet(p.Space())
	small.AddLinear(0) // only index (0,0)
	deb2, _, err := img.DebloatData(t.TempDir(), "/stencil/mnist.sdf", "data", small, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deb2.Run([]float64{1, 1}, "data", nil); err == nil {
		t.Error("run beyond carved subset should fail without a fetcher")
	} else if !errors.Is(err, debloat.ErrDataMissing) {
		t.Errorf("error = %v, want data missing", err)
	}
	fetcher, err := dataserve.NewLocalFetcher(filepath.Join(srcDir, "mnist.sdf"))
	if err != nil {
		t.Fatal(err)
	}
	defer fetcher.Close()
	rep, err := deb2.Run([]float64{1, 1}, "data", fetcher)
	if err != nil {
		t.Fatalf("recovered run failed: %v", err)
	}
	if rep.Misses == 0 || !rep.Recovered {
		t.Errorf("expected recovered misses, got %+v", rep)
	}
}
