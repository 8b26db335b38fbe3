// Stencil2D: the paper's end-to-end container scenario (Fig. 2).
//
// Run with:
//
//	go run ./examples/stencil2d
//
// Alice ships a cross-stencil application in a container with a
// 128x128 data file. The example builds the container, debloats its
// data file for the advertised PARAM space, rebuilds the image, and
// shows that Bob's runs behave identically on the smaller image —
// including what happens when a run strays outside the carved subset.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/array"
	"repro/internal/sdf"
	"repro/kondo"
)

const spec = `
FROM ubuntu:20.04
RUN apt-get install -y gcc
RUN apt-get install -y libhdf5-dev
ADD ./mnist.sdf /stencil/mnist.sdf
ADD ./crossStencil.c /stencil/crossStencil.c
PARAM [0-127, 0-127]
ENTRYPOINT ["CS2"]
CMD [1, 1, /stencil/mnist.sdf]
`

func main() {
	work, err := os.MkdirTemp("", "kondo-stencil2d")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(work)

	// --- Alice's side: payload + container build ---
	srcDir := filepath.Join(work, "src")
	if err := os.MkdirAll(srcDir, 0o755); err != nil {
		log.Fatal(err)
	}
	space := array.MustSpace(128, 128)
	writeData(filepath.Join(srcDir, "mnist.sdf"), space)
	if err := os.WriteFile(filepath.Join(srcDir, "crossStencil.c"),
		[]byte("/* Listing 1 of the paper */\n"), 0o644); err != nil {
		log.Fatal(err)
	}

	parsed, err := kondo.ParseSpec(strings.NewReader(spec))
	if err != nil {
		log.Fatal(err)
	}
	img, err := kondo.BuildImage(parsed, srcDir, filepath.Join(work, "image"))
	if err != nil {
		log.Fatal(err)
	}
	origSize, _ := img.Size()
	fmt.Printf("built container image: %d bytes\n", origSize)

	// --- Kondo: approximate the index subset for the PARAM space ---
	p, err := kondo.ProgramForSpace(parsed.Entrypoint, space.Dims())
	if err != nil {
		log.Fatal(err)
	}
	cfg := kondo.DefaultConfig()
	cfg.Fuzz.Seed = 7
	res, err := kondo.Debloat(context.Background(), p, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Kondo: %d debloat tests -> %d hulls, %.2f%% bloat identified\n",
		res.Fuzz.Evaluations, len(res.Hulls),
		100*kondo.BloatFraction(space, res.Approx))

	// --- rebuild the image with the debloated data file ---
	deb, stats, err := img.DebloatData(filepath.Join(work, "image-debloated"),
		"/stencil/mnist.sdf", "data", res.Approx, []int{16, 16})
	if err != nil {
		log.Fatal(err)
	}
	debSize, _ := deb.Size()
	fmt.Printf("debloated image: %d bytes (data file reduced %.2f%%)\n",
		debSize, 100*stats.Reduction())

	// --- Bob's side: supported runs behave identically ---
	for _, v := range [][]float64{{1, 1}, {0, 1}, {1, 2}} {
		rep, err := deb.Run(v, "data", nil)
		if err != nil {
			log.Fatalf("run %v failed: %v", v, err)
		}
		fmt.Printf("run stepX=%g stepY=%g: ok (%d misses)\n", v[0], v[1], rep.Misses)
	}

	// --- a run outside the carved subset raises data-missing ... ---
	// stepX > stepY fails the program's guard and reads nothing, so to
	// show the exception we carve a deliberately smaller subset.
	small, _, err := img.DebloatData(filepath.Join(work, "image-tiny"),
		"/stencil/mnist.sdf", "data", cornerOnly(space), []int{16, 16})
	if err != nil {
		log.Fatal(err)
	}
	_, err = small.Run([]float64{1, 1}, "data", nil)
	if errors.Is(err, kondo.ErrDataMissing) {
		fmt.Println("under-carved image: run raised the data-missing exception (as designed)")
	} else {
		log.Fatalf("expected data-missing exception, got %v", err)
	}

	// --- ... and recovers when a remote fetcher is attached (§VI) ---
	fetcher, err := kondo.NewOriginFetcher(filepath.Join(srcDir, "mnist.sdf"))
	if err != nil {
		log.Fatal(err)
	}
	defer fetcher.Close()
	rep, err := small.Run([]float64{1, 1}, "data", fetcher)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with remote fetch: run completed, %d missing elements recovered\n", rep.Misses)
}

// writeData creates the 256 KB long-double data file of §V-B.
func writeData(path string, space array.Space) {
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset("data", space, array.LongDouble, []int{16, 16})
	if err != nil {
		log.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin)
	}); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
}

// cornerOnly keeps just the origin 16x16 block — deliberately smaller
// than any real run needs.
func cornerOnly(space array.Space) *kondo.IndexSet {
	set := array.NewIndexSet(space)
	for r := 0; r < 16; r++ {
		for c := 0; c < 16; c++ {
			set.Add(array.NewIndex(r, c))
		}
	}
	return set
}
