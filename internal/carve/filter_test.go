package carve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/fuzz"
	"repro/internal/hull"
	"repro/internal/obs"
	"repro/internal/workload"
)

// latticeSet draws a sorted, duplicate-free set of linear indices of
// one shape: a holey dense blob, a sparse scatter, a single line in a
// random lattice direction, a flat spanned by two random lattice
// directions, or a single point.
func latticeSet(rng *rand.Rand, space array.Space, kind string) []int64 {
	dims := space.Dims()
	d := len(dims)
	randPoint := func() []int {
		p := make([]int, d)
		for k := range p {
			p[k] = rng.Intn(dims[k])
		}
		return p
	}
	randDir := func() []int {
		for {
			v := make([]int, d)
			zero := true
			for k := range v {
				v[k] = rng.Intn(3) - 1
				zero = zero && v[k] == 0
			}
			if !zero {
				return v
			}
		}
	}
	seen := make(map[int64]bool)
	add := func(p []int) {
		if lin, err := space.Linear(array.Index(p)); err == nil {
			seen[lin] = true
		}
	}
	switch kind {
	case "blob":
		c := randPoint()
		r := 2 + rng.Intn(dims[0]/2)
		space.Each(func(ix array.Index) bool {
			dist2 := 0
			for k, v := range ix {
				dist2 += (v - c[k]) * (v - c[k])
			}
			if dist2 <= r*r && rng.Intn(10) < 7 {
				add(ix)
			}
			return true
		})
	case "scatter":
		for i := 0; i < 5+rng.Intn(30); i++ {
			add(randPoint())
		}
	case "line", "plane":
		o, u, v := randPoint(), randDir(), randDir()
		if kind == "line" {
			v = make([]int, d)
		}
		n := dims[0]
		for i := -n; i <= n; i++ {
			for j := -n; j <= n; j++ {
				if (kind == "line" && j != 0) || rng.Intn(10) < 4 {
					continue
				}
				p := make([]int, d)
				for k := range p {
					p[k] = o[k] + i*u[k] + j*v[k]
				}
				add(p)
			}
		}
	case "point":
		add(randPoint())
	}
	if len(seen) == 0 {
		add(randPoint())
	}
	lins := make([]int64, 0, len(seen))
	for lin := range seen {
		lins = append(lins, lin)
	}
	sort.Slice(lins, func(i, j int) bool { return lins[i] < lins[j] })
	return lins
}

// extremesByMap is the filter as one map per axis from a line (a
// point with its axis-k coordinate zeroed) to the line's ends: the
// reference the array-backed lineFilter is checked against.
func extremesByMap(space array.Space, lins []int64) []int64 {
	rank := space.Rank()
	strides := make([]int64, rank)
	stride := int64(1)
	for k := rank - 1; k >= 0; k-- {
		strides[k] = stride
		stride *= int64(space.Dim(k))
	}
	line := func(lin int64, k int) int64 {
		return lin - (lin/strides[k])%int64(space.Dim(k))*strides[k]
	}
	ends := make([]map[int64][2]int64, rank)
	for k := range ends {
		ends[k] = make(map[int64][2]int64)
		for _, lin := range lins {
			e, ok := ends[k][line(lin, k)]
			if !ok {
				e = [2]int64{lin, lin}
			}
			ends[k][line(lin, k)] = [2]int64{min(e[0], lin), max(e[1], lin)}
		}
	}
	var kept []int64
next:
	for _, lin := range lins {
		for k := range ends {
			if e := ends[k][line(lin, k)]; lin != e[0] && lin != e[1] {
				continue next
			}
		}
		kept = append(kept, lin)
	}
	slices.Sort(kept)
	return kept
}

// checkFilterKeepsHull filters lins with f, which may have filtered
// other sets before, and requires the map reference's kept points. It
// then builds the hull of every point and the hull of the kept points,
// and requires identical vertex lists with every vertex among the kept
// points.
func checkFilterKeepsHull(t *testing.T, label string, f *lineFilter, space array.Space, lins []int64) (all, kept int) {
	t.Helper()
	whole := toPoints(space, lins)
	keptLins := f.extremes(append([]int64(nil), lins...))
	if want := extremesByMap(space, lins); !slices.Equal(keptLins, want) {
		t.Errorf("%s: the filter kept %d points, the map reference %d", label, len(keptLins), len(want))
	}
	keptSet := make(map[int64]bool, len(keptLins))
	for _, lin := range keptLins {
		keptSet[lin] = true
	}
	hAll, err := hull.New(whole)
	if err != nil {
		t.Fatal(err)
	}
	hKept, err := hull.New(toPoints(space, keptLins))
	if err != nil {
		t.Fatal(err)
	}
	sameHulls(t, label, []*hull.Hull{hKept}, []*hull.Hull{hAll})
	for _, v := range hAll.Vertices() {
		ix := make(array.Index, len(v))
		for k, c := range v {
			ix[k] = int(c)
		}
		lin, err := space.Linear(ix)
		if err != nil || !keptSet[lin] {
			t.Errorf("%s: vertex %v was filtered out", label, v)
		}
	}
	return len(lins), len(keptLins)
}

// TestLineFilterKeepsHull is the filter's property oracle: over random
// lattice sets in 2-D, 3-D and 4-D (4-D hulls are LP-only), one filter
// per space keeps what the map reference keeps, set after set, and the
// hull of the kept points is the hull of all points, vertex for vertex.
func TestLineFilterKeepsHull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trials := 5
	if testing.Short() {
		trials = 2
	}
	for _, dim := range []int{2, 3, 4} {
		side := map[int]int{2: 40, 3: 16, 4: 7}[dim]
		dims := make([]int, dim)
		for k := range dims {
			dims[k] = side
		}
		space := array.MustSpace(dims...)
		f := newLineFilter(space)
		for trial := 0; trial < trials; trial++ {
			for _, kind := range []string{"blob", "scatter", "line", "plane", "point"} {
				lins := latticeSet(rng, space, kind)
				label := fmt.Sprintf("%d-D %s trial %d (%d points)", dim, kind, trial, len(lins))
				checkFilterKeepsHull(t, label, f, space, lins)
			}
		}
	}
}

// campaign runs one virtual fuzz campaign of the given size and
// returns its observed index set.
func campaign(t *testing.T, p workload.Program, tests int, seed int64) *array.IndexSet {
	t.Helper()
	cfg := fuzz.DefaultConfig()
	cfg.MaxEvals = tests
	cfg.Seed = seed
	cfg.Workers = 1
	eval := func(v []float64) (*array.IndexSet, error) { return workload.RunOnVirtual(p, v) }
	f, err := fuzz.New(p.Params(), p.Space(), eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res.Indices
}

// TestLineFilterPinsWorkloadCells pins the filter on real campaigns:
// for every SPLIT cell of scaled-down ARD, MSI, PRL3D, LDC3D and RDC3D
// campaigns at two seeds, one filter shared by the cells, as split
// shares it, keeps what the map reference keeps, and the hull of the
// whole cell equals the hull of its filtered points. The SC baseline's hull is checked against
// the hull of every observed point of one campaign.
func TestLineFilterPinsWorkloadCells(t *testing.T) {
	tests := 150
	if testing.Short() {
		tests = 60
	}
	ard, err := workload.NewARD(48, 72, 64, 3, 15, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	msi, err := workload.NewMSI(25, 33, 130, 10, 15)
	if err != nil {
		t.Fatal(err)
	}
	progs := []workload.Program{ard, msi,
		workload.MustPRL(32, 32, 32), workload.MustLDC(32, 32, 32), workload.MustRDC(32, 32, 32)}
	cellSize := DefaultConfig().CellSize
	for _, p := range progs {
		for _, seed := range []int64{1, 2} {
			set := campaign(t, p, tests, seed)
			f := newLineFilter(set.Space())
			all, kept := 0, 0
			for i, lins := range splitLinear(set, cellSize) {
				label := fmt.Sprintf("%s seed %d cell %d", p.Name(), seed, i)
				n, k := checkFilterKeepsHull(t, label, f, set.Space(), lins)
				all += n
				kept += k
			}
			if all != set.Len() {
				t.Errorf("%s seed %d: cells hold %d points, the set %d", p.Name(), seed, all, set.Len())
			}
			t.Logf("%s seed %d: %d points, %d kept for the cell hulls", p.Name(), seed, all, kept)
		}
	}

	set := campaign(t, workload.MustLDC(32, 32, 32), tests, 1)
	sc, err := SimpleConvex(set)
	if err != nil {
		t.Fatal(err)
	}
	lins := make([]int64, 0, set.Len())
	set.EachLinear(func(lin int64) bool {
		lins = append(lins, lin)
		return true
	})
	sort.Slice(lins, func(i, j int) bool { return lins[i] < lins[j] })
	every, err := hull.New(toPoints(set.Space(), lins))
	if err != nil {
		t.Fatal(err)
	}
	sameHulls(t, "SC on LDC3D", []*hull.Hull{sc}, []*hull.Hull{every})
}

// TestCarveTraceShowsFilter checks that a traced 3-D carve reports the
// filter at work: the carve.cell-hulls span's hull_points (points
// handed to hull construction) is below carve.split's points (|IS|).
func TestCarveTraceShowsFilter(t *testing.T) {
	space := array.MustSpace(32, 32, 32)
	set := array.NewIndexSet(space)
	for x := 2; x < 20; x++ {
		for y := 4; y < 14; y++ {
			for z := 0; z < 24; z++ {
				if _, err := set.Add(array.NewIndex(x, y, z)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tr := obs.NewTrace()
	if _, _, err := CarveStats(obs.WithTrace(context.Background(), tr), set, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatal(err)
	}
	args := map[string]map[string]any{}
	for _, e := range out.TraceEvents {
		args[e.Name] = e.Args
	}
	points, _ := args["carve.split"]["points"].(float64)
	hullPoints, ok := args["carve.cell-hulls"]["hull_points"].(float64)
	if !ok {
		t.Fatalf("carve.cell-hulls span has no hull_points arg: %v", args["carve.cell-hulls"])
	}
	if int(points) != set.Len() {
		t.Errorf("carve.split points = %v, want |IS| = %d", points, set.Len())
	}
	if hullPoints <= 0 || hullPoints >= points {
		t.Errorf("hull_points = %v, want in (0, points = %v)", hullPoints, points)
	}
}
