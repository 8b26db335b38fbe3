package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/array"
	"repro/internal/workload"
)

// exactCounts are the counts each workload must repeat exactly between
// runs of one seed, traced or not.
var exactCounts = map[string][]string{
	"ard-virtual": {"fuzz.tests", "fuzz.observed_indices", "carve.final_hulls", "carve.pair_tests"},
	"ldc-audited": {"fuzz.tests", "fuzz.observed_indices", "carve.final_hulls", "carve.pair_tests",
		"ioevent.events", "debloat.kept_chunks"},
	"msi-file": {"fuzz.tests", "fuzz.observed_indices", "carve.final_hulls", "carve.pair_tests",
		"debloat.kept_chunks"},
	"prl-recover": {"dataserve.round_trips", "dataserve.verify_ok"},
}

func runSmall(t *testing.T, name string, traced, tamper bool) *result {
	t.Helper()
	res, err := run(options{
		workload: name, seed: 7, traced: traced, small: true, dir: t.TempDir(), tamper: tamper,
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestCountsRepeat runs each workload at reduced size twice untraced
// and once traced: every op must pass its checks, the exact counts
// must agree across the three runs, and each kind of run must report
// the metrics BENCHMARK.json lists for it.
func TestCountsRepeat(t *testing.T) {
	spec := readSpec(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			runs := []*result{runSmall(t, name, false, false), runSmall(t, name, false, false), runSmall(t, name, true, false)}
			for i, r := range runs {
				if !r.Correct || r.Failed != 0 || r.Attempted < 3 {
					t.Fatalf("run %d: correct=%v failed=%d attempted=%d", i, r.Correct, r.Failed, r.Attempted)
				}
			}
			for _, k := range exactCounts[name] {
				a, ok := runs[0].counts[k]
				if !ok || a <= 0 {
					t.Errorf("count %s = %v (present %v), want a positive count", k, a, ok)
				}
				for i, r := range runs[1:] {
					if r.counts[k] != a {
						t.Errorf("count %s: run %d has %v, run 0 has %v", k, i+1, r.counts[k], a)
					}
				}
			}
			checkNames(t, "untraced", runs[0], spec.EndToEnd)
			checkNames(t, "traced", runs[2], spec.PerLayer)
		})
	}
}

// benchmarkSpec is the part of ../BENCHMARK.json a run's output must
// match: the metric names and units of each kind of run.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkNames fails unless a run reports exactly the listed metrics, in
// the listed units.
func checkNames(t *testing.T, kind string, r *result, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s run lacks metric %s", kind, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s run reports %s in %q, BENCHMARK.json says %q", kind, m.Name, got.Unit, m.Unit)
		}
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%s run reports %d metrics, BENCHMARK.json lists %d", kind, len(r.Metrics), len(want))
	}
}

// TestPlantedFaultFails flips one byte of a kept chunk in every
// debloated file: every op must count as failed.
func TestPlantedFaultFails(t *testing.T) {
	for _, name := range []string{"ldc-audited", "msi-file", "prl-recover"} {
		r := runSmall(t, name, false, true)
		if r.Correct || r.Failed != r.Attempted {
			t.Errorf("%s: correct=%v failed=%d of %d, want every op failed", name, r.Correct, r.Failed, r.Attempted)
		}
	}
}

// TestVerifyFailureFailsOps flips an origin byte in a carved-away chunk
// under the running server, after its Merkle tree is primed. The replay
// that recovers that chunk must fail verification, and every later op
// must fail too, including ops whose own reads all succeed.
func TestVerifyFailureFailsOps(t *testing.T) {
	b, _, err := newBench(options{workload: "prl-recover", seed: 7, small: true, dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := b.(*recovery)
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if err := flipByte(r.origin, array.Index{0, r.n - 4}); err != nil {
		t.Fatal(err)
	}
	first, checkOnly := -1, 0
	for i := 0; i < 200; i++ {
		out, err := r.op(i, nil)
		if err == nil {
			if err = r.check(out); err != nil && first >= 0 {
				checkOnly++
			}
		}
		switch {
		case err != nil && first < 0:
			first = i
		case err == nil && first >= 0:
			t.Fatalf("op %d passed after op %d failed", i, first)
		}
	}
	if first < 0 {
		t.Fatal("no op recovered the damaged chunk")
	}
	if st := r.fetcher.Stats(); st.VerifyFailed == 0 {
		t.Errorf("op %d failed, but no chunk failed verification", first)
	}
	if checkOnly == 0 {
		t.Error("no op failed on the verification count alone")
	}
}

// TestAdvertisedTruthMatchesGroundTruth pins prl-recover's closed-form
// I_Θ to the exhaustive ground truth of the restricted program.
func TestAdvertisedTruthMatchesGroundTruth(t *testing.T) {
	r, err := newRecovery(64, 16, 10, 1, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.GroundTruth(r.adv)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.advertisedTruth(); !got.Equal(want) {
		t.Errorf("closed form has %d indices, ground truth %d", got.Len(), want.Len())
	}
}

// TestSharesAddUp checks the layer attribution on a hand-built op: two
// concurrent children split the time they overlap, folded calls count
// as their own layer, and the shares sum to the op's duration.
func TestSharesAddUp(t *testing.T) {
	rec := &recorder{}
	mk := func(name string, parent *span, start, end int64) *span {
		s := rec.start(name, 0, parent)
		s.Start, s.End = start, end
		return s
	}
	root := mk("op", nil, 0, 100)
	run := mk("fuzz.run", root, 10, 90)
	mk("workload.eval", run, 20, 60)
	mk("workload.eval", run, 40, 80)
	open := mk("trace.open", run, 82, 88)
	open.addCall(4, 16)

	layers, got := shares(rec.opSpans()[0])
	if got != root {
		t.Fatal("root not found")
	}
	want := map[string]float64{
		"residual":      20,
		"fuzz.run":      14, // [10,20) [80,82) [88,90)
		"workload.eval": 60, // [20,80) covered, overlap split evenly
		"trace.open":    2,
		"trace.read":    4,
	}
	var sum float64
	for k, v := range layers {
		sum += v
		if want[k] != v {
			t.Errorf("layer %s = %v, want %v", k, v, want[k])
		}
	}
	if sum != 100 {
		t.Errorf("shares sum to %v, want the op's 100", sum)
	}
}
