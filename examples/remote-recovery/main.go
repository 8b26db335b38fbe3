// Remote recovery: the §VI missing-data path over a real network hop.
//
// Run with:
//
//	go run ./examples/remote-recovery
//
// The example builds a chunked ARD-style climate origin, debloats it
// against a deliberately tight approximation, and serves the origin
// over HTTP with the chunk-granular data plane (internal/dataserve —
// the same handler cmd/kondo-serve wraps). It then replays a
// carved-away read through the caching chunk fetcher, verifies the
// recovered values match the origin byte-for-byte, and reports the
// round-trip reduction against the runtime's miss count — the round
// trips a one-element-per-request protocol would make (expected well
// above 10x).
package main

import (
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/array"
	"repro/internal/sdf"
	"repro/internal/workload"
	"repro/kondo"
)

func main() {
	work, err := os.MkdirTemp("", "kondo-remote")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(work)

	// Chunked ARD-style origin: 48x64 grid over 32 time steps, stored
	// as 8x8x8 chunks so the server hands out real storage chunks.
	ard, err := workload.NewARD(48, 64, 32, 4, 16, 3, 8)
	if err != nil {
		log.Fatal(err)
	}
	space := ard.Space()
	origin := filepath.Join(work, "origin.sdf")
	w := sdf.NewWriter(origin)
	dw, err := w.CreateDataset("data", space, array.Float64, []int{8, 8, 8})
	if err != nil {
		log.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin) * 0.5
	}); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	// Deliberately under-carve: keep only the first 8 time planes, so
	// reads at later times must fetch remotely.
	keep := array.NewIndexSet(space)
	space.Each(func(ix array.Index) bool {
		if ix[2] < 8 {
			keep.Add(ix)
		}
		return true
	})
	deb := filepath.Join(work, "debloated.sdf")
	stats, err := kondo.WriteSubset(origin, deb, "data", keep, []int{8, 8, 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("debloated file:  %.2f%% reduction (deliberately under-carved)\n", 100*stats.Reduction())

	// Chunk-granular origin server on loopback.
	srv, err := kondo.NewDataServer(origin)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("origin server:   %s\n", baseURL)

	// The replayed access: a 16x8 spatial window at time plane 20 —
	// fully carved away, so every element is a local miss, recovered
	// through the caching chunk fetcher (one round trip per chunk).
	start, count := []int{0, 0, 20}, []int{16, 8, 1}
	cached := kondo.NewCachedFetcher(baseURL)
	rt, closer, err := kondo.OpenRuntime(deb, "data", cached)
	if err != nil {
		log.Fatal(err)
	}
	defer closer.Close()
	vals, err := rt.ReadSlab(start, count)
	if err != nil {
		log.Fatal(err)
	}
	misses := rt.Misses()
	if misses == 0 {
		log.Fatal("expected carved-away reads")
	}
	st := cached.Stats()
	fmt.Printf("cached fetcher:  %d values, %d misses via %d HTTP round trips (%.1f%% cache hit)\n",
		len(vals), misses, st.RoundTrips, 100*st.HitRate())

	// The recovered values must be the origin's, bit for bit.
	of, err := sdf.Open(origin)
	if err != nil {
		log.Fatal(err)
	}
	defer of.Close()
	ods, err := of.Dataset("data")
	if err != nil {
		log.Fatal(err)
	}
	want, err := ods.ReadHyperslab(sdf.Slab(start, count))
	if err != nil {
		log.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(vals[i]) != math.Float64bits(want[i]) {
			log.Fatalf("value %d differs: recovered=%v origin=%v", i, vals[i], want[i])
		}
	}
	// One element per request would cost one round trip per miss.
	reduction := float64(misses) / float64(st.RoundTrips)
	fmt.Printf("values match the origin byte-for-byte; %.0fx fewer round trips than misses\n", reduction)
}
