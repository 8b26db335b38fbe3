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
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

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

	// Untraced run for the overhead comparison.
	start := time.Now()
	plain, err := sdf.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	ds, _ := plain.Dataset("data")
	if err := p.Run(v, &workload.Env{Acc: workload.NewFileAccessor(ds)}); err != nil {
		log.Fatal(err)
	}
	plain.Close()
	untraced := time.Since(start)

	// Traced run.
	start = time.Now()
	store := ioevent.NewStore()
	tr := trace.NewTracer(store)
	tf, err := tr.Open(tr.NewProcess(), path)
	if err != nil {
		log.Fatal(err)
	}
	af, err := sdf.OpenFrom(tf)
	if err != nil {
		log.Fatal(err)
	}
	ads, _ := af.Dataset("data")
	if err := p.Run(v, &workload.Env{Acc: workload.NewFileAccessor(ads)}); err != nil {
		log.Fatal(err)
	}
	traced := time.Since(start)

	name := filepath.Base(path)
	ranges := store.FileRanges(name)
	indices, err := trace.AccessedIndices(store, name, ads)
	if err != nil {
		log.Fatal(err)
	}
	af.Close()

	fmt.Printf("real audit of %s(extent0=%g, extent1=%g):\n", p.Name(), v[0], v[1])
	fmt.Printf("  %d syscall events -> %d merged byte ranges -> %d array indices\n",
		store.Events(), len(ranges), indices.Len())
	fmt.Printf("  untraced %v, traced %v (overhead %.1f%%; paper §V-D6 reports ~31%% average)\n",
		untraced, traced, 100*float64(traced-untraced)/float64(untraced))
}
