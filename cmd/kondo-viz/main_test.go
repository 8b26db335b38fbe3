package main

import (
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fuzz"
)

const sampleTrace = `{"traceEvents":[` +
	`{"name":"kondo.fuzz","cat":"kondo","ph":"X","ts":0,"dur":1200,"pid":1,"tid":0},` +
	`{"name":"fuzz.round","cat":"kondo","ph":"X","ts":10,"dur":500,"pid":1,"tid":0},` +
	`{"name":"note","cat":"kondo","ph":"i","ts":20,"pid":1,"tid":0}` +
	`],"metadata":{}}`

// outFile returns an *os.File the checker can write its summary to.
func outFile(t *testing.T) *os.File {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestCheckTracePlainJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(sampleTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkTraceFile(outFile(t), path, 0); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestCheckTraceGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if _, err := zw.Write([]byte(sampleTrace)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := checkTraceFile(outFile(t), path, 0); err != nil {
		t.Fatalf("gzip trace rejected: %v", err)
	}
}

func TestCheckTraceRejectsNonGzipWithGzSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json.gz")
	if err := os.WriteFile(path, []byte(sampleTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	err := checkTraceFile(outFile(t), path, 0)
	if err == nil || !strings.Contains(err.Error(), "gzip") {
		t.Fatalf("uncompressed .gz file accepted: %v", err)
	}
}

// stitchedTrace is a multi-process trace as a client writes after
// merging the /tracez exports of two origins: process_name metadata
// per lane plus spans and an instant under distinct pids.
const stitchedTrace = `{"traceEvents":[` +
	`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"kondo-load"}},` +
	`{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"kondo-serve:a"}},` +
	`{"name":"process_name","ph":"M","pid":3,"tid":0,"args":{"name":"kondo-serve:b"}},` +
	`{"name":"dataserve.fetch","cat":"dataserve","ph":"X","ts":0,"dur":9000,"pid":1,"tid":0},` +
	`{"name":"serve.chunk","cat":"serve","ph":"X","ts":100,"dur":400,"pid":2,"tid":0},` +
	`{"name":"serve.chunk","cat":"serve","ph":"X","ts":150,"dur":380,"pid":3,"tid":0},` +
	`{"name":"serve.evict","cat":"serve","ph":"i","ts":520,"pid":2,"tid":0,"args":{"chunk":"0,1"}}` +
	`],"metadata":{}}`

func TestCheckTraceMultiPID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stitched.json")
	if err := os.WriteFile(path, []byte(stitchedTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkTraceFile(outFile(t), path, 3); err != nil {
		t.Fatalf("stitched trace rejected: %v", err)
	}
}

func TestCheckTraceMinPidsFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(sampleTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	err := checkTraceFile(outFile(t), path, 2)
	if err == nil || !strings.Contains(err.Error(), "process lane") {
		t.Fatalf("single-pid trace passed -min-pids 2: %v", err)
	}
}

func TestCheckTraceRejectsNamelessProcessMetadata(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	bad := `{"traceEvents":[{"name":"process_name","ph":"M","pid":2,"args":{}}]}`
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkTraceFile(outFile(t), path, 0); err == nil {
		t.Fatal("process_name metadata without args.name accepted")
	}
}

func TestCheckTraceRejectsMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"traceEvents":[{"ph":"X","ts":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkTraceFile(outFile(t), path, 0); err == nil {
		t.Fatal("nameless event accepted")
	}
}

func TestCoverageModeASCIIAndSVG(t *testing.T) {
	dir := t.TempDir()
	series := &fuzz.CoverageSeries{
		Dims:      []int{32, 32},
		SpaceSize: 1024,
		Points: []fuzz.CoveragePoint{
			{Round: 1, Evaluations: 10, Covered: 100, New: 100},
			{Round: 2, Evaluations: 20, Covered: 150, New: 50, Saturation: 0.5},
		},
	}
	seriesPath := filepath.Join(dir, "coverage.json")
	if err := series.WriteFile(seriesPath); err != nil {
		t.Fatal(err)
	}

	// ASCII chart to a file we can read back.
	asciiOut := outFile(t)
	if err := coverageMode(asciiOut, seriesPath, ""); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(asciiOut.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "150/1024") {
		t.Fatalf("ASCII chart missing summary:\n%s", raw)
	}

	// SVG render.
	svgPath := filepath.Join(dir, "coverage.svg")
	if err := coverageMode(outFile(t), seriesPath, svgPath); err != nil {
		t.Fatal(err)
	}
	svg, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(svg), "<svg") || !strings.Contains(string(svg), "polyline") {
		t.Fatalf("SVG output malformed:\n%s", svg)
	}

	if err := coverageMode(outFile(t), filepath.Join(dir, "missing.json"), ""); err == nil {
		t.Fatal("missing series accepted")
	}
}
