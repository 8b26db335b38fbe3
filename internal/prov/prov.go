// Package prov builds a provenance graph from Kondo's audit events, in
// the style of the system-call-based lineage systems the paper builds
// on (SPADE [10], Sciunit [12]): process and artifact vertices with
// used / wasGeneratedBy edges. Kondo's contribution is the
// *fine-grained* extension — here the used edges carry the byte-range
// summary of the access. The inclusion-provenance index
// (inclusion.go) records why each index of a debloated file was kept.
package prov

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/ioevent"
)

// Kind classifies a vertex (Open Provenance Model flavoured).
type Kind uint8

// Vertex kinds.
const (
	Process  Kind = iota + 1 // an executing process
	Artifact                 // a file (or file version)
)

// String returns the OPM-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case Process:
		return "process"
	case Artifact:
		return "artifact"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// EdgeKind classifies a dependency edge. Edges point from the
// dependent entity to what it depended on (OPM direction).
type EdgeKind uint8

// Edge kinds.
const (
	Used           EdgeKind = iota + 1 // process → artifact it read
	WasGeneratedBy                     // artifact → process that wrote it
)

// String returns the OPM name of the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case Used:
		return "used"
	case WasGeneratedBy:
		return "wasGeneratedBy"
	default:
		return fmt.Sprintf("edge(%d)", uint8(k))
	}
}

// Vertex is one node of the graph.
type Vertex struct {
	ID    string
	Kind  Kind
	Label string
	Attrs map[string]string
}

// Edge is one dependency.
type Edge struct {
	From, To string
	Kind     EdgeKind
	Attrs    map[string]string
}

// Graph is a provenance graph.
type Graph struct {
	vertices map[string]*Vertex
	order    []string // insertion order for deterministic output
	edges    []Edge
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{vertices: make(map[string]*Vertex)}
}

// AddVertex inserts (or replaces) a vertex.
func (g *Graph) AddVertex(id string, kind Kind, label string, attrs map[string]string) *Vertex {
	v, exists := g.vertices[id]
	if !exists {
		v = &Vertex{ID: id}
		g.vertices[id] = v
		g.order = append(g.order, id)
	}
	v.Kind = kind
	v.Label = label
	v.Attrs = attrs
	return v
}

// AddEdge inserts a dependency edge; both endpoints must exist.
func (g *Graph) AddEdge(from, to string, kind EdgeKind, attrs map[string]string) error {
	if _, ok := g.vertices[from]; !ok {
		return fmt.Errorf("prov: unknown vertex %q", from)
	}
	if _, ok := g.vertices[to]; !ok {
		return fmt.Errorf("prov: unknown vertex %q", to)
	}
	g.edges = append(g.edges, Edge{From: from, To: to, Kind: kind, Attrs: attrs})
	return nil
}

// Vertices returns all vertices in insertion order.
func (g *Graph) Vertices() []*Vertex {
	out := make([]*Vertex, len(g.order))
	for i, id := range g.order {
		out[i] = g.vertices[id]
	}
	return out
}

// pidID and fileID build canonical vertex ids.
func pidID(pid int) string      { return fmt.Sprintf("process:%d", pid) }
func fileID(name string) string { return "artifact:" + name }

// FromStore builds the run-level provenance of an audited execution:
// one process vertex per pid, one artifact per file, used edges
// carrying the merged byte-range summary, and wasGeneratedBy edges for
// files the process wrote.
func FromStore(store *ioevent.Store) *Graph {
	g := NewGraph()
	// Artifact vertices carry the file-level merged access summary.
	for _, file := range store.Files() {
		merged := store.FileRanges(file)
		var total int64
		for _, r := range merged {
			total += r.Len()
		}
		g.AddVertex(fileID(file), Artifact, file, map[string]string{
			"accessed_ranges": fmt.Sprint(len(merged)),
			"accessed_bytes":  fmt.Sprint(total),
		})
	}
	// Per-process used edges with the fine-grained range summary.
	for _, id := range store.IDs() {
		g.AddVertex(pidID(id.PID), Process, fmt.Sprintf("P%d", id.PID), nil)
		if _, ok := g.vertices[fileID(id.File)]; !ok {
			g.AddVertex(fileID(id.File), Artifact, id.File, nil)
		}
		ranges := store.Lookup(id)
		var total int64
		for _, r := range ranges {
			total += r.Len()
		}
		_ = g.AddEdge(pidID(id.PID), fileID(id.File), Used, map[string]string{
			"ranges": fmt.Sprint(len(ranges)),
			"bytes":  fmt.Sprint(total),
		})
	}
	for _, w := range store.Writes() {
		g.AddVertex(pidID(w.ID.PID), Process, fmt.Sprintf("P%d", w.ID.PID), nil)
		if _, ok := g.vertices[fileID(w.ID.File)]; !ok {
			g.AddVertex(fileID(w.ID.File), Artifact, w.ID.File, nil)
		}
		_ = g.AddEdge(fileID(w.ID.File), pidID(w.ID.PID), WasGeneratedBy, nil)
	}
	return g
}

// DOT writes the graph in Graphviz format.
func (g *Graph) DOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph provenance {\n  rankdir=BT;\n")
	for _, v := range g.Vertices() {
		shape := "box"
		if v.Kind == Process {
			shape = "ellipse"
		}
		// Build the label with Graphviz-level \n line breaks; escape
		// double quotes so the label stays a valid quoted string.
		label := dotEscape(v.Label)
		if len(v.Attrs) > 0 {
			keys := make([]string, 0, len(v.Attrs))
			for k := range v.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				label += `\n` + dotEscape(k) + "=" + dotEscape(v.Attrs[k])
			}
		}
		fmt.Fprintf(&b, "  \"%s\" [shape=%s,label=\"%s\"];\n", dotEscape(v.ID), shape, label)
	}
	for _, e := range g.edges {
		fmt.Fprintf(&b, "  \"%s\" -> \"%s\" [label=\"%s\"];\n",
			dotEscape(e.From), dotEscape(e.To), e.Kind)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// dotEscape escapes double quotes and backslashes for a Graphviz
// quoted string.
func dotEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
