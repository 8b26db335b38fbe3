// Auditlab: a tour of the fine-grained I/O event audit (paper §IV-C).
//
// Run with:
//
//	go run ./examples/auditlab
//
// The example replays the paper's worked event-merging example, then
// audits a real program run end-to-end: traced file handle → syscall
// events → merged byte ranges (sorted runs) → resolved array
// indices, and shows the audit overhead on the same reads.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/array"
	"repro/internal/ioevent"
	"repro/internal/sdf"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	paperExample()
	fmt.Println()
	realAudit()
}

// paperExample reproduces §IV-C's event sequence: e1(P1,R,0,110),
// e2(P2,R,70,30), e3(P1,R,130,20), e4(P1,R,90,30) merge to accessed
// offsets (0,120) and (130,150).
func paperExample() {
	store := ioevent.NewStore()
	events := []ioevent.Event{
		{ID: ioevent.ID{PID: 1, File: "d"}, Op: ioevent.OpRead, Offset: 0, Size: 110},
		{ID: ioevent.ID{PID: 2, File: "d"}, Op: ioevent.OpRead, Offset: 70, Size: 30},
		{ID: ioevent.ID{PID: 1, File: "d"}, Op: ioevent.OpRead, Offset: 130, Size: 20},
		{ID: ioevent.ID{PID: 1, File: "d"}, Op: ioevent.OpRead, Offset: 90, Size: 30},
	}
	fmt.Println("paper §IV-C example:")
	for _, e := range events {
		fmt.Println("  ", e)
		if err := store.Record(e); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Print("  merged accessed offsets:")
	for _, r := range store.FileRanges("d") {
		fmt.Printf(" (%d,%d)", r.Start, r.End)
	}
	fmt.Println()
}

// realAudit traces a PRL2D run against a real file and resolves the
// audited ranges back to indices.
func realAudit() {
	dir, err := os.MkdirTemp("", "kondo-auditlab")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	space := array.MustSpace(128, 128)
	path := filepath.Join(dir, "mesh.sdf")
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset("data", space, array.LongDouble, []int{16, 16})
	if err != nil {
		log.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin)
	}); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	p := workload.MustPRL(128, 128)
	v := []float64{100, 90}
	run := func(ds *sdf.Dataset) error {
		return p.Run(v, &workload.Env{Acc: workload.NewFileAccessor(ds)})
	}

	// The same run untraced, for the overhead comparison, then traced.
	ctx := context.Background()
	untraced, err := trace.Audit(ctx, nil, path, "data", run)
	if err != nil {
		log.Fatal(err)
	}
	store := ioevent.NewStore()
	traced, err := trace.Audit(ctx, trace.NewTracer(store), path, "data", run)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("real audit of %s(extent0=%g, extent1=%g):\n", p.Name(), v[0], v[1])
	fmt.Printf("  %d syscall events -> %d merged byte ranges -> %d array indices\n",
		store.Events(), len(traced.Ranges), traced.Indices.Len())
	fmt.Printf("  untraced %v, traced %v (overhead %.1f%%; paper §V-D6 reports ~31%% average)\n",
		untraced.Elapsed, traced.Elapsed, 100*float64(traced.Elapsed-untraced.Elapsed)/float64(untraced.Elapsed))
}
