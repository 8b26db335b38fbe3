package kondo

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/workload"
)

// pipelineDigest is one pipeline run reduced to short hashes of what it
// computed: IS as runs, the coverage curve, the carve stats, the hulls'
// vertex lists in order, and the rasterized I'_Θ as runs.
type pipelineDigest struct {
	indices, curve, stats, hulls, raster string
}

func digestOf(res *Result) pipelineDigest {
	var buf [8]byte
	i64 := func(h hash.Hash, v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }
	runs := func(each func(fn func(lo, hi int64) bool)) string {
		h := sha256.New()
		each(func(lo, hi int64) bool {
			i64(h, lo)
			i64(h, hi)
			return true
		})
		return sum(h)
	}
	var d pipelineDigest
	d.indices = runs(res.Fuzz.Indices.EachRun)
	d.raster = runs(res.Approx.EachRun)

	h := sha256.New()
	for _, c := range res.Fuzz.Curve {
		i64(h, int64(c))
	}
	d.curve = sum(h)

	h = sha256.New()
	st := res.CarveStats
	for _, v := range []int64{int64(st.Points), int64(st.Cells), int64(st.InitialHulls),
		int64(st.FinalHulls), int64(st.MergePasses), int64(st.Merges), st.PairTests, st.PruneHits} {
		i64(h, v)
	}
	d.stats = sum(h)

	h = sha256.New()
	i64(h, int64(len(res.Hulls)))
	for _, hl := range res.Hulls {
		i64(h, int64(hl.NumVertices()))
		for _, v := range hl.Vertices() {
			for _, c := range v {
				i64(h, int64(math.Float64bits(c)))
			}
		}
	}
	d.hulls = sum(h)
	return d
}

// goldenPrograms are the 13 programs: the 11 of workload.All at their
// default sizes, and ARD and MSI scaled down as the carve's filter
// test scales them.
func goldenPrograms(t *testing.T) []workload.Program {
	t.Helper()
	ard, err := workload.NewARD(48, 72, 64, 3, 15, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	msi, err := workload.NewMSI(25, 33, 130, 10, 15)
	if err != nil {
		t.Fatal(err)
	}
	return append(workload.All(), ard, msi)
}

// goldenDigests pin the whole pipeline, fuzz campaign to raster, for
// the 13 programs at seed 1 with 2 fuzz and 2 carve workers. They were
// computed before the fuzz merge staged each round's new indices and
// before the carve lost its hash maps, so both rewrites are checked
// against the code they replaced.
var goldenDigests = map[string]pipelineDigest{
	"CS2":   {"41fc6a6040ce21b3", "84eff5cb925d6694", "2628b69000c1129b", "b12e4634f8ace58d", "4e5c88c657855644"},
	"PRL2D": {"958d46fe72d5a53c", "6d49b813852b706a", "cfcdc29ae9b3cc15", "d09cd1276de59778", "7fecfea4655da1dd"},
	"LDC2D": {"c998c7633d6463ac", "de832c78d2a796fe", "83eae906dfc7e8e9", "36e3370f724d5dbf", "c998c7633d6463ac"},
	"RDC2D": {"5bf59e63c93c9e51", "de832c78d2a796fe", "83eae906dfc7e8e9", "71334e0d52e2cc2f", "5bf59e63c93c9e51"},
	"CS1":   {"51177c9e8dc7067e", "b144af84a8ff704f", "e3e2afe31bb57cc8", "f0aade34812a08dc", "b7321114164b264c"},
	"CS3":   {"22e5a992d3ed2e76", "4f97cbd074f6a6a4", "4dfef17e009d0b36", "26fa4f8ab1ff3b22", "82e28cdfced63b84"},
	"CS4":   {"a4b56d3c56ee62a6", "6e116224bd51bc24", "fb296582bb7edba9", "cf8036503c79d887", "a7c2a4128da39106"},
	"CS5":   {"6baad2269117a79a", "9816089dd8f2be76", "4f0a281c56fd860b", "b12e4634f8ace58d", "4e5c88c657855644"},
	"PRL3D": {"a11cac2ea1dcb441", "a377ab083d129bcf", "10eb427b5df7d71d", "ed4e45e6fec0e33e", "da670db003e0c0de"},
	"LDC3D": {"61a4074dd18a8f4c", "04391dac766088e3", "fb3dd6a4e01abd8c", "3fcbf54cec95243a", "61a4074dd18a8f4c"},
	"RDC3D": {"36f626e4314046af", "04391dac766088e3", "fb3dd6a4e01abd8c", "7c127919421c3250", "36f626e4314046af"},
	"ARD":   {"4754357be4944d39", "a6b38822080c0391", "eef5a3952ed877e2", "bba36c7b9a5e11fb", "4754357be4944d39"},
	"MSI":   {"2114cba8014b49b6", "3300694bf1e97a5b", "e8aafea60840b6f1", "fef9ac6b3e67f906", "b177219703afadde"},
}

// TestPipelineGoldenDigests is the end-to-end identity oracle: every
// program's IS, coverage curve, carve stats, hull vertex lists and
// raster hash to the pinned values. It takes about 2.5 s, and ten times
// that under the race detector, so -short skips it.
func TestPipelineGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("13 full pipelines; slow under -race")
	}
	for _, p := range goldenPrograms(t) {
		cfg := DefaultConfig()
		cfg.Fuzz.Seed = 1
		cfg.Fuzz.Workers = 2
		cfg.Carve.Workers = 2
		res, err := Debloat(context.Background(), p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		got := digestOf(res)
		if want, ok := goldenDigests[p.Name()]; !ok || got != want {
			t.Errorf("%s: got %#v, want %#v", p.Name(), got, want)
		}
	}
}
