package fuzz

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	params := workload.ParamSpace{{Name: "x", Lo: 0, Hi: 10}}
	space := array.MustSpace(8, 8)
	eval := func(v []float64) (*array.IndexSet, error) {
		return array.NewIndexSet(space), nil
	}

	bad := []func(*Config){
		func(c *Config) { c.InitialSeeds = 0 },
		func(c *Config) { c.MaxIter = 0 },
		func(c *Config) { c.UsefulReps = -1 },
		func(c *Config) { c.UsefulDist = [2]float64{10, 5} },
		func(c *Config) { c.Decay = 0 },
		func(c *Config) { c.Decay = 1.5 },
		func(c *Config) { c.Epsilon = -0.1 },
		func(c *Config) { c.Diameter = 0 },
	}
	for i, mod := range bad {
		c := base
		mod(&c)
		if _, err := New(params, space, eval, c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(nil, space, eval, base); err == nil {
		t.Error("empty param space accepted")
	}
	if _, err := New(params, space, nil, base); err == nil {
		t.Error("nil evaluator accepted")
	}
}

func TestClusterSet(t *testing.T) {
	cs := newClusterSet(5)
	cs.add(geom.NewPoint(0, 0))
	cs.add(geom.NewPoint(1, 1)) // joins first cluster
	cs.add(geom.NewPoint(50, 50))
	if cs.size() != 2 {
		t.Fatalf("size = %d, want 2", cs.size())
	}
	c, d, ok := cs.nearest(geom.NewPoint(2, 2))
	if !ok {
		t.Fatal("nearest failed")
	}
	if c[0] > 1 || d > 3 {
		t.Errorf("nearest = %v at %v", c, d)
	}
	// Running-mean center: first cluster center is (0.5, 0.5).
	if c[0] != 0.5 || c[1] != 0.5 {
		t.Errorf("running mean center = %v, want (0.5, 0.5)", c)
	}
	empty := newClusterSet(5)
	if _, _, ok := empty.nearest(geom.NewPoint(0, 0)); ok {
		t.Error("nearest on empty set should report !ok")
	}
}

// rectEvaluator simulates a program that reads index (x, y) when the
// two parameters land inside a rectangle of the parameter space.
func rectEvaluator(space array.Space, loX, hiX, loY, hiY int) Evaluator {
	return func(v []float64) (*array.IndexSet, error) {
		set := array.NewIndexSet(space)
		x, y := workload.RoundParam(v[0]), workload.RoundParam(v[1])
		if x >= loX && x <= hiX && y >= loY && y <= hiY {
			set.Add(array.NewIndex(x, y))
		}
		return set, nil
	}
}

func TestFuzzerFindsRectangle(t *testing.T) {
	space := array.MustSpace(64, 64)
	params := workload.ParamSpace{{Name: "x", Lo: 0, Hi: 63}, {Name: "y", Lo: 0, Hi: 63}}
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.MaxIter = 1500
	f, err := New(params, space, rectEvaluator(space, 10, 30, 10, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations == 0 || res.Useful == 0 || res.NonUseful == 0 {
		t.Fatalf("degenerate campaign: %+v", res)
	}
	// The campaign must discover a large share of the 21x21 region.
	found := res.Indices.Len()
	if found < 200 {
		t.Errorf("found only %d of 441 rectangle indices", found)
	}
	// All discovered indices must be inside the rectangle (the
	// evaluator is exact, so IS ⊆ I_Θ always).
	res.Indices.Each(func(ix array.Index) bool {
		if ix[0] < 10 || ix[0] > 30 || ix[1] < 10 || ix[1] > 30 {
			t.Errorf("index %v outside the true region", ix)
			return false
		}
		return true
	})
	if res.UsefulClusters == 0 || res.NonUsefulClusters == 0 {
		t.Error("no clusters formed")
	}
}

func TestFuzzerDeterministicWithSeed(t *testing.T) {
	space := array.MustSpace(32, 32)
	params := workload.ParamSpace{{Lo: 0, Hi: 31}, {Lo: 0, Hi: 31}}
	run := func() *Result {
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.MaxIter = 300
		f, err := New(params, space, rectEvaluator(space, 5, 20, 5, 20), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Evaluations != b.Evaluations || a.Indices.Len() != b.Indices.Len() {
		t.Errorf("seeded runs differ: %d/%d vs %d/%d",
			a.Evaluations, a.Indices.Len(), b.Evaluations, b.Indices.Len())
	}
	if len(a.Seeds) != len(b.Seeds) {
		t.Fatalf("seed traces differ in length")
	}
	for i := range a.Seeds {
		for k := range a.Seeds[i].V {
			if a.Seeds[i].V[k] != b.Seeds[i].V[k] {
				t.Fatalf("seed %d differs", i)
			}
		}
	}
}

func TestFuzzerRespectsMaxEvals(t *testing.T) {
	space := array.MustSpace(32, 32)
	params := workload.ParamSpace{{Lo: 0, Hi: 31}, {Lo: 0, Hi: 31}}
	cfg := DefaultConfig()
	cfg.MaxEvals = 25
	f, err := New(params, space, rectEvaluator(space, 0, 31, 0, 31), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > 25 {
		t.Errorf("Evaluations = %d, budget 25", res.Evaluations)
	}
}

// TestFuzzerRespectsTimeBudget pins a campaign's one wall-clock bound,
// its context's deadline: under a 20 ms deadline a campaign of slow
// tests returns within a second with the tests it finished, and
// reports StopCanceled.
func TestFuzzerRespectsTimeBudget(t *testing.T) {
	space := array.MustSpace(32, 32)
	params := workload.ParamSpace{{Lo: 0, Hi: 31}, {Lo: 0, Hi: 31}}
	cfg := DefaultConfig()
	cfg.MaxIter = 1 << 20
	cfg.StopIter = 0 // only the deadline may stop this campaign
	everything := rectEvaluator(space, 0, 31, 0, 31)
	slow := func(v []float64) (*array.IndexSet, error) {
		time.Sleep(time.Millisecond)
		return everything(v)
	}
	f, err := New(params, space, slow, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := f.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("campaign returned %v after a 20ms deadline", elapsed)
	}
	if res.StopReason != StopCanceled {
		t.Errorf("StopReason = %q, want %q", res.StopReason, StopCanceled)
	}
	if res.Evaluations == 0 || res.Indices.Empty() {
		t.Errorf("partial result is empty: %d evaluations, %d indices", res.Evaluations, res.Indices.Len())
	}
	if res.Evaluations >= 1024 {
		t.Errorf("campaign ran all %d valuations despite the deadline", res.Evaluations)
	}
}

func TestFuzzerStopsWhenIdle(t *testing.T) {
	// An evaluator that never finds anything: the schedule must stop
	// after StopIter idle iterations, well before MaxIter.
	space := array.MustSpace(16, 16)
	params := workload.ParamSpace{{Lo: 0, Hi: 15}, {Lo: 0, Hi: 15}}
	cfg := DefaultConfig()
	cfg.StopIter = 50
	cfg.MaxIter = 100000
	f, err := New(params, space, func(v []float64) (*array.IndexSet, error) {
		return array.NewIndexSet(space), nil
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 100000 {
		t.Errorf("idle stop did not trigger: %d iterations", res.Iterations)
	}
}

func TestFuzzerNeverEvaluatesSameValuationTwice(t *testing.T) {
	space := array.MustSpace(16, 16)
	params := workload.ParamSpace{{Lo: 0, Hi: 15}, {Lo: 0, Hi: 15}}
	seen := map[string]int{}
	eval := func(v []float64) (*array.IndexSet, error) {
		key := seedKey(v)
		seen[key]++
		return rectEvaluator(space, 4, 10, 4, 10)(v)
	}
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.MaxIter = 1000
	cfg.Workers = 1 // the evaluator mutates `seen` without a lock
	f, err := New(params, space, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for key, n := range seen {
		if n > 1 {
			t.Errorf("valuation %s evaluated %d times", key, n)
		}
	}
}

func TestBoundaryScheduleConcentratesNearBoundary(t *testing.T) {
	// Compare the share of evaluations near the region boundary for
	// plain EE vs boundary-based EE — the Fig. 4 contrast. The
	// boundary schedule should probe the boundary band at least as
	// densely.
	space := array.MustSpace(128, 128)
	params := workload.ParamSpace{{Lo: 0, Hi: 127}, {Lo: 0, Hi: 127}}
	nearBoundary := func(res *Result) float64 {
		// Region is x in [40,80] (all y): boundary at x=40 and x=80.
		near := 0
		for _, s := range res.Seeds {
			x := s.V[0]
			if (x >= 32 && x <= 48) || (x >= 72 && x <= 88) {
				near++
			}
		}
		return float64(near) / float64(len(res.Seeds))
	}
	eval := func(v []float64) (*array.IndexSet, error) {
		set := array.NewIndexSet(space)
		x := workload.RoundParam(v[0])
		y := workload.RoundParam(v[1])
		if x >= 40 && x <= 80 && y >= 0 && y <= 127 {
			set.Add(array.NewIndex(x, y))
		}
		return set, nil
	}
	runWith := func(boundary bool) float64 {
		cfg := DefaultConfig()
		cfg.Seed = 11
		cfg.MaxIter = 1200
		cfg.Boundary = boundary
		// Faster decay so boundary mutations actually engage within
		// the budget.
		cfg.DecayIter = 50
		cfg.Decay = 0.8
		f, err := New(params, space, eval, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return nearBoundary(res)
	}
	plain := runWith(false)
	bb := runWith(true)
	t.Logf("near-boundary fraction: plain=%.3f boundary=%.3f", plain, bb)
	if bb < plain*0.8 {
		t.Errorf("boundary schedule less boundary-focused than plain EE: %.3f vs %.3f", bb, plain)
	}
}

// An evaluator whose set ranges over another space fails its test
// instead of merging: the merge unions linear positions, which only
// line up within one space.
func TestEvaluatorSpaceMismatchFails(t *testing.T) {
	params := workload.ParamSpace{{Name: "x", Lo: 0, Hi: 10}}
	space := array.MustSpace(8, 8)
	eval := func(v []float64) (*array.IndexSet, error) {
		s := array.NewIndexSet(array.MustSpace(4, 16))
		s.AddLinear(3)
		return s, nil
	}
	cfg := DefaultConfig()
	cfg.MaxEvals = 5
	f, err := New(params, space, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "evaluator returned indices over 4×16, want 8×8") {
		t.Fatalf("Run = %v, %v; want every test failed on the space mismatch", res, err)
	}
}
