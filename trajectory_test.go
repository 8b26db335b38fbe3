package repro_test

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// trajectory is TRAJECTORY.json: one point per perf-relevant change,
// each a paired perfbench comparison of the change against its parent.
type trajectory struct {
	LastUpdate string                       `json:"lastUpdate"`
	Benchmark  string                       `json:"benchmark"`
	Entries    map[string][]trajectoryPoint `json:"entries"`
}

type trajectoryPoint struct {
	PR       int        `json:"pr"`
	Parent   string     `json:"parent_commit"`
	Date     string     `json:"date"`
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	Unit     string     `json:"unit"`
	Seeds    []int      `json:"seeds"`
	Pairs    int        `json:"pairs"`
	Wins     int        `json:"wins"`
	Before   *quartiles `json:"parent"`
	After    *quartiles `json:"change"`
}

type quartiles struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// TestTrajectoryParses checks TRAJECTORY.json against BENCHMARK.json:
// every point names a declared workload and metric in the metric's
// unit, has wins ≤ pairs, and both sides satisfy q1 ≤ median ≤ q3.
func TestTrajectoryParses(t *testing.T) {
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	readJSON(t, "BENCHMARK.json", &bench, false)
	workloads := map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	units := map[string]string{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		units[m.Name] = m.Unit
	}

	var tr trajectory
	readJSON(t, "TRAJECTORY.json", &tr, true)
	if tr.Benchmark != "BENCHMARK.json" {
		t.Errorf("benchmark = %q, want BENCHMARK.json", tr.Benchmark)
	}
	date := regexp.MustCompile(`^\d{4}-\d{2}-\d{2}$`)
	commit := regexp.MustCompile(`^[0-9a-f]{40}$`)
	if !date.MatchString(tr.LastUpdate) {
		t.Errorf("lastUpdate %q is not YYYY-MM-DD", tr.LastUpdate)
	}
	n := 0
	for tool, points := range tr.Entries {
		for i, p := range points {
			n++
			if !workloads[p.Workload] {
				t.Errorf("%s[%d]: workload %q is not in BENCHMARK.json", tool, i, p.Workload)
			}
			unit, ok := units[p.Metric]
			if !ok {
				t.Errorf("%s[%d]: metric %q is not in BENCHMARK.json", tool, i, p.Metric)
			} else if p.Unit != unit {
				t.Errorf("%s[%d]: %s unit %q, BENCHMARK.json says %q", tool, i, p.Metric, p.Unit, unit)
			}
			if p.PR <= 0 || !commit.MatchString(p.Parent) || !date.MatchString(p.Date) {
				t.Errorf("%s[%d]: bad pr %d, parent %q or date %q", tool, i, p.PR, p.Parent, p.Date)
			}
			if len(p.Seeds) == 0 || p.Pairs <= 0 || p.Wins < 0 || p.Wins > p.Pairs {
				t.Errorf("%s[%d]: seeds %v, %d wins of %d pairs", tool, i, p.Seeds, p.Wins, p.Pairs)
			}
			for side, q := range map[string]*quartiles{"parent": p.Before, "change": p.After} {
				if q == nil {
					t.Errorf("%s[%d]: no %s quartiles", tool, i, side)
				} else if !(q.Q1 <= q.Median && q.Median <= q.Q3) {
					t.Errorf("%s[%d]: %s q1 %v, median %v, q3 %v out of order", tool, i, side, q.Q1, q.Median, q.Q3)
				}
			}
		}
	}
	if n == 0 {
		t.Error("TRAJECTORY.json holds no points")
	}
}

// readJSON decodes the file at path into v; strict rejects fields v
// does not declare.
func readJSON(t *testing.T, path string, v any, strict bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
