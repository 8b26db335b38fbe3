package dataserve

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/array"
	"repro/internal/debloat"
	"repro/internal/obs"
	"repro/internal/sdf"
	"repro/internal/workload"
)

// localFetcher returns a fetcher over the origin file, closed when the
// test ends.
func localFetcher(t testing.TB, origin string) *Fetcher {
	t.Helper()
	f, err := NewLocalFetcher(origin)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// debloatCS2 keeps CS2's analytic I_Θ of a 64×64 origin stored in 8×8
// chunks, and returns the origin, the debloated file, and the trusted
// spec of the manifest's embedded Merkle root.
func debloatCS2(t *testing.T) (origin, deb string, spec sdf.MerkleSpec) {
	t.Helper()
	p := workload.MustCS(2, 64)
	truth, err := workload.GroundTruth(p)
	if err != nil {
		t.Fatal(err)
	}
	chunk := []int{8, 8}
	origin = writeOriginFile(t, p.Space(), chunk)
	deb = filepath.Join(t.TempDir(), "deb.sdf")
	stats, err := debloat.WriteSubset(origin, deb, "data", truth, chunk)
	if err != nil {
		t.Fatal(err)
	}
	m := debloat.NewManifest(p.Name(), "data", p.Space().Dims(), "chunk", chunk, nil, stats, 0)
	if err := m.EmbedMerkle(origin); err != nil {
		t.Fatal(err)
	}
	sp, err := m.MerkleSpec()
	if err != nil {
		t.Fatal(err)
	}
	return origin, deb, *sp
}

// openData opens the "data" dataset of an sdf file for the test.
func openData(t *testing.T, path string) *sdf.Dataset {
	t.Helper()
	f, err := sdf.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	ds, err := f.Dataset("data")
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestVerifiedLocalRecoveryEndToEnd recovers every carved-away element
// of a debloated CS2 file through a local origin, with verification on
// and off: every value must be bit-identical to the origin, and a
// traced verified run records the in-process serve spans in the
// caller's trace.
func TestVerifiedLocalRecoveryEndToEnd(t *testing.T) {
	origin, deb, spec := debloatCS2(t)
	for _, verify := range []bool{true, false} {
		f := localFetcher(t, origin)
		if verify {
			if err := f.SetVerify("data", spec); err != nil {
				t.Fatal(err)
			}
		}
		tr := obs.NewTrace()
		ds := openData(t, deb)
		rt := debloat.NewRuntimeContext(obs.WithTrace(context.Background(), tr), ds, f)
		space := ds.Space()
		space.Each(func(ix array.Index) bool {
			v, err := rt.ReadElement(ix)
			if err != nil {
				t.Fatalf("verify=%v: reading %v: %v", verify, ix, err)
			}
			if got, want := math.Float64bits(v), math.Float64bits(originValue(space, ix)); got != want {
				t.Fatalf("verify=%v: %v recovered as %x, origin holds %x", verify, ix, got, want)
			}
			return true
		})
		if rt.Misses() == 0 || rt.Recovered() != rt.Misses() {
			t.Fatalf("verify=%v: misses=%d recovered=%d, want equal and non-zero", verify, rt.Misses(), rt.Recovered())
		}
		st := f.Stats()
		wantOK := int64(0)
		if verify {
			wantOK = st.CacheMisses
		}
		if st.VerifyOK != wantOK || st.VerifyFailed != 0 {
			t.Errorf("verify=%v: verify ok=%d failed=%d, want %d/0", verify, st.VerifyOK, st.VerifyFailed, wantOK)
		}
		if verify {
			spans := map[string]int{}
			for _, e := range tr.Export(0).Events {
				spans[e.Name]++
			}
			for _, name := range []string{"dataserve.fetch", "serve.meta", "serve.chunk", "verify.chunk"} {
				if spans[name] == 0 {
					t.Errorf("traced local recovery recorded no %s span: %v", name, spans)
				}
			}
		}
	}
}

// TestVerifiedLocalRecoveryRejectsTamperedOrigin flips one value byte
// of a carved-away chunk in the origin file: a fresh verified local
// fetcher must reject every element of that chunk as ErrVerifyFailed,
// never as missing data, and cache none of it.
func TestVerifiedLocalRecoveryRejectsTamperedOrigin(t *testing.T) {
	origin, deb, spec := debloatCS2(t)
	var carved array.Index
	debDS := openData(t, deb)
	debDS.Space().Each(func(ix array.Index) bool {
		if _, err := debDS.ReadElement(ix); errors.Is(err, sdf.ErrDataMissing) {
			carved = ix.Clone()
			return false
		}
		return true
	})
	if carved == nil {
		t.Fatal("debloated file has no carved-away element")
	}
	off, err := openData(t, origin).FileOffset(carved)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := os.OpenFile(origin, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := fh.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := fh.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	f := localFetcher(t, origin)
	if err := f.SetVerify("data", spec); err != nil {
		t.Fatal(err)
	}
	r0, c0 := carved[0]/8*8, carved[1]/8*8
	for r := r0; r < r0+8; r++ {
		for c := c0; c < c0+8; c++ {
			_, err := f.FetchContext(context.Background(), "data", array.NewIndex(r, c))
			requireVerifyFailed(t, err)
		}
	}
	if st := f.Stats(); st.VerifyOK != 0 || st.VerifyFailed != 64 || st.CacheEntries != 0 {
		t.Fatalf("verify ok=%d failed=%d, cache entries=%d; want 0/64/0", st.VerifyOK, st.VerifyFailed, st.CacheEntries)
	}
}
