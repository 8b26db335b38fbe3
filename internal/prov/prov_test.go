package prov

import (
	"strings"
	"testing"

	"repro/internal/ioevent"
)

func sampleStore(t *testing.T) *ioevent.Store {
	t.Helper()
	s := ioevent.NewStore()
	events := []ioevent.Event{
		{ID: ioevent.ID{PID: 1, File: "mnist.sdf"}, Op: ioevent.OpRead, Offset: 0, Size: 100},
		{ID: ioevent.ID{PID: 1, File: "mnist.sdf"}, Op: ioevent.OpRead, Offset: 200, Size: 50},
		{ID: ioevent.ID{PID: 2, File: "mnist.sdf"}, Op: ioevent.OpRead, Offset: 50, Size: 100},
		{ID: ioevent.ID{PID: 2, File: "out.log"}, Op: ioevent.OpWrite, Offset: 0, Size: 10},
	}
	for _, e := range events {
		if err := s.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestFromStoreStructure(t *testing.T) {
	g := FromStore(sampleStore(t))

	// Vertices: P1, P2, mnist.sdf, out.log.
	if _, ok := g.vertices["process:1"]; !ok {
		t.Error("missing process:1")
	}
	if _, ok := g.vertices["process:2"]; !ok {
		t.Error("missing process:2")
	}
	art, ok := g.vertices["artifact:mnist.sdf"]
	if !ok {
		t.Fatal("missing data artifact")
	}
	// File-level summary: ranges (0,150) and (200,250) → 2 ranges, 200 bytes.
	if art.Attrs["accessed_ranges"] != "2" || art.Attrs["accessed_bytes"] != "200" {
		t.Errorf("artifact attrs = %v", art.Attrs)
	}

	// Edges: two used edges to mnist, one used to out.log (the write
	// also counts as an access), one wasGeneratedBy from out.log.
	var used, generated int
	for _, e := range g.edges {
		switch e.Kind {
		case Used:
			used++
		case WasGeneratedBy:
			generated++
			if e.From != "artifact:out.log" || e.To != "process:2" {
				t.Errorf("wasGeneratedBy edge = %+v", e)
			}
		}
	}
	if used != 3 {
		t.Errorf("used edges = %d, want 3", used)
	}
	if generated != 1 {
		t.Errorf("wasGeneratedBy edges = %d, want 1", generated)
	}

	// The per-process used edge carries the fine-grained summary.
	for _, e := range g.edges {
		if e.Kind == Used && e.From == "process:1" {
			if e.Attrs["ranges"] != "2" || e.Attrs["bytes"] != "150" {
				t.Errorf("P1 used attrs = %v", e.Attrs)
			}
		}
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph()
	g.AddVertex("a", Artifact, "a", nil)
	if err := g.AddEdge("a", "missing", Used, nil); err == nil {
		t.Error("edge to unknown vertex should error")
	}
	if err := g.AddEdge("missing", "a", Used, nil); err == nil {
		t.Error("edge from unknown vertex should error")
	}
}

func TestDOTOutput(t *testing.T) {
	g := FromStore(sampleStore(t))
	var b strings.Builder
	if err := g.DOT(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"digraph provenance",
		`"process:1"`,
		`"artifact:mnist.sdf"`,
		"wasGeneratedBy",
		"shape=ellipse", // the processes
		"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if Process.String() != "process" || Artifact.String() != "artifact" {
		t.Error("Kind strings wrong")
	}
	if Used.String() != "used" || WasGeneratedBy.String() != "wasGeneratedBy" {
		t.Error("EdgeKind strings wrong")
	}
}
