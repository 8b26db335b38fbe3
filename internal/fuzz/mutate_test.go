package fuzz

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/workload"
)

func testFuzzer(t *testing.T, cfg Config) *Fuzzer {
	t.Helper()
	space := array.MustSpace(128, 128)
	params := workload.ParamSpace{{Name: "x", Lo: 0, Hi: 127}, {Name: "y", Lo: 0, Hi: 127}}
	eval := func(v []float64) (*array.IndexSet, error) {
		return array.NewIndexSet(space), nil
	}
	f, err := New(params, space, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestUniformStepWithinFrame(t *testing.T) {
	f := testFuzzer(t, DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	v := geom.NewPoint(60, 60)
	dist := [2]float64{5, 15}
	for i := 0; i < 500; i++ {
		m := f.uniformStep(v, dist, rng)
		for k := range m {
			step := math.Abs(m[k] - v[k])
			if step < dist[0]-1e-9 || step > dist[1]+1e-9 {
				t.Fatalf("step %v outside frame [%v, %v]", step, dist[0], dist[1])
			}
		}
	}
}

func TestGreedyStepMovesTowardTarget(t *testing.T) {
	f := testFuzzer(t, DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	v := geom.NewPoint(20, 20)
	target := geom.NewPoint(100, 100)
	dist := [2]float64{5, 15}
	closer := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		m := geom.Point(f.greedyStep(v, target, v.Dist(target), dist, rng))
		if m.Dist(target) < v.Dist(target) {
			closer++
		}
	}
	// The jitter spreads probes along the boundary, but the bulk of
	// mutants must move toward the opposite-type cluster.
	if float64(closer)/trials < 0.8 {
		t.Errorf("only %d/%d greedy steps moved toward the target", closer, trials)
	}
}

func TestGreedyStepScalesWithDistance(t *testing.T) {
	f := testFuzzer(t, DefaultConfig())
	dist := [2]float64{5, 15}
	v := geom.NewPoint(0, 0)
	target := geom.NewPoint(1, 0) // direction +x

	avgStep := func(targetDist float64) float64 {
		rng := rand.New(rand.NewSource(3))
		var total float64
		const trials = 400
		for i := 0; i < trials; i++ {
			m := geom.Point(f.greedyStep(v, target, targetDist, dist, rng))
			total += m.Dist(v)
		}
		return total / trials
	}
	far := avgStep(200) // far from the boundary: big frame
	near := avgStep(2)  // near the boundary: dense, small frame
	if far <= near {
		t.Errorf("frame scaling inverted: far=%v near=%v", far, near)
	}
}

func TestMutantsClampedIntoTheta(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.MaxIter = 300
	cfg.Workers = 1 // the evaluator records every valuation
	space := array.MustSpace(16, 16)
	params := workload.ParamSpace{{Name: "x", Lo: 3, Hi: 12}, {Name: "y", Lo: 3, Hi: 12}}
	var evaluated [][]float64
	eval := func(v []float64) (*array.IndexSet, error) {
		evaluated = append(evaluated, append([]float64(nil), v...))
		s := array.NewIndexSet(space)
		s.Add(array.NewIndex(workload.RoundParam(v[0]), workload.RoundParam(v[1])))
		return s, nil
	}
	f, err := New(params, space, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, v := range evaluated {
		if v[0] < 3 || v[0] > 12 || v[1] < 3 || v[1] > 12 {
			t.Fatalf("evaluated value %v outside Θ", v)
		}
	}
}

// seedKey is a seed's dedup key as a string.
func seedKey(v []float64) string { return string(appendSeedKey(nil, v)) }

func TestSeedKeyRoundsToValuation(t *testing.T) {
	if seedKey([]float64{1.4, 2.6}) != seedKey([]float64{0.5, 3.4}) {
		t.Error("values rounding to the same valuation should share a key")
	}
	if seedKey([]float64{1, 2}) == seedKey([]float64{2, 1}) {
		t.Error("distinct valuations share a key")
	}
	// The key is the rounded values in decimal, comma-separated.
	for _, v := range [][]float64{{0}, {-3.5, 2.49, 1e6}, {-0.4, 7, -12.6}} {
		want := make([]string, len(v))
		for i, x := range v {
			want[i] = fmt.Sprintf("%d", workload.RoundParam(x))
		}
		if got := seedKey(v); got != strings.Join(want, ",") {
			t.Errorf("seedKey(%v) = %q, want %q", v, got, strings.Join(want, ","))
		}
	}
}

func TestFuzzerCurveMonotone(t *testing.T) {
	space := array.MustSpace(32, 32)
	params := workload.ParamSpace{{Lo: 0, Hi: 31}, {Lo: 0, Hi: 31}}
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.MaxIter = 400
	f, err := New(params, space, rectEvaluator(space, 5, 25, 5, 25), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != res.Evaluations {
		t.Fatalf("curve has %d samples, %d evaluations", len(res.Curve), res.Evaluations)
	}
	for i := 1; i < len(res.Curve); i++ {
		if res.Curve[i] < res.Curve[i-1] {
			t.Fatalf("coverage curve decreased at %d", i)
		}
	}
	if res.Curve[len(res.Curve)-1] != res.Indices.Len() {
		t.Error("curve endpoint disagrees with final |IS|")
	}
}
