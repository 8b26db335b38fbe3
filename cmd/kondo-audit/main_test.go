package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/ioevent"
	"repro/internal/sdf"
)

func TestParseParams(t *testing.T) {
	got, err := parseParams("1, 2.5 ,3")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2.5, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseParams = %v, want %v", got, want)
		}
	}
	if _, err := parseParams("1,x"); err == nil {
		t.Error("bad parameter should error")
	}
	if _, err := parseParams(""); err == nil {
		t.Error("empty parameters should error")
	}
}

// A run that fails after the event log is attached leaves the old log
// and DOT files as they were; a run that succeeds replaces the log
// with one that replays.
func TestFailedRunKeepsOldOutputs(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.sdf")
	writeData(t, data)
	logPath, dotPath := filepath.Join(dir, "run.klog"), filepath.Join(dir, "run.dot")
	for _, p := range []string{logPath, dotPath} {
		if err := os.WriteFile(p, []byte("old bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// CS2 takes two parameters.
	if err := run(context.Background(), data, "data", "CS2", "3", false, logPath, dotPath); err == nil {
		t.Fatal("run with one parameter for CS2 should fail")
	}
	for _, p := range []string{logPath, dotPath} {
		if got, err := os.ReadFile(p); err != nil || string(got) != "old bytes" {
			t.Errorf("%s after a failed run = %q, %v; want the old bytes", filepath.Base(p), got, err)
		}
	}

	if err := run(context.Background(), data, "data", "CS2", "3,5", false, logPath, dotPath); err != nil {
		t.Fatal(err)
	}
	lf, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	store := ioevent.NewStore()
	if err := ioevent.Replay(lf, store); err != nil {
		t.Fatalf("replaying the written log: %v", err)
	}
	if store.Events() == 0 {
		t.Error("written log holds no events")
	}
}

// writeData writes a 32×32 float64 dataset "data" in 8×8 chunks.
func writeData(t *testing.T, path string) {
	t.Helper()
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset("data", array.MustSpace(32, 32), array.Float64, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(array.Index) float64 { return 1 }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// A log keys its ranges by the audited file's name: replaying it
// against a renamed copy of that file fails and names the file the log
// records, where the original name replays cleanly.
func TestReplayRejectsUnrecordedFile(t *testing.T) {
	dir := t.TempDir()
	data, renamed := filepath.Join(dir, "data.sdf"), filepath.Join(dir, "renamed.sdf")
	writeData(t, data)
	writeData(t, renamed)
	logPath := filepath.Join(dir, "run.klog")
	if err := run(context.Background(), data, "data", "CS2", "3,5", false, logPath, ""); err != nil {
		t.Fatal(err)
	}
	if err := runReplay(logPath, data, "data", false); err != nil {
		t.Fatalf("replay against the audited file: %v", err)
	}
	err := runReplay(logPath, renamed, "data", false)
	if err == nil {
		t.Fatal("replay against a renamed copy resolved nothing and succeeded")
	}
	if !strings.Contains(err.Error(), "renamed.sdf") || !strings.Contains(err.Error(), "reads of data.sdf") {
		t.Errorf("error %q should name renamed.sdf and the recorded data.sdf", err)
	}
}
