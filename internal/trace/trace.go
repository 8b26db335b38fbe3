// Package trace is Kondo's audit interposition layer, standing in for
// the ptrace-based Sciunit system of the paper. It wraps file handles
// so that every data access turns into an ioevent.Event, and resolves
// the audited byte ranges back to array indices using the data file's
// self-describing metadata (paper §IV-C). Audit runs one whole debloat
// test (paper Def. 2) through both.
//
// The paper's interposer observes open/lseek/read/close system calls;
// our traced handle exposes ReadAt, which it reports as the equivalent
// lseek+read pair so the recorded event stream matches what a syscall
// tracer would log.
package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/ioevent"
	"repro/internal/obs"
)

// Tracer audits file I/O into an event store. Audit runs each debloat
// test under a process of its own, so one Tracer (and one teed log) can
// serve many runs.
type Tracer struct {
	store   *ioevent.Store
	nextPID atomic.Int64

	// log is the attached event log, or nil, so that recording without
	// one costs a single atomic load. logMu serializes the appends: a
	// LogWriter is not safe for concurrent use.
	log   atomic.Pointer[ioevent.LogWriter]
	logMu sync.Mutex
}

// NewTracer returns a Tracer recording into store.
func NewTracer(store *ioevent.Store) *Tracer {
	return &Tracer{store: store}
}

// TeeLog additionally appends every recorded event to the given
// persistent event log (paper §V Implementation: system-call arguments
// are recorded in a data store). Pass nil to stop teeing.
func (t *Tracer) TeeLog(lw *ioevent.LogWriter) { t.log.Store(lw) }

// record sends an event to the store and, when attached, the log.
func (t *Tracer) record(e ioevent.Event) error {
	if err := t.store.Record(e); err != nil {
		return err
	}
	lw := t.log.Load()
	if lw == nil {
		return nil
	}
	t.logMu.Lock()
	defer t.logMu.Unlock()
	return lw.Append(e)
}

// NewProcess allocates a simulated process identifier. Audited
// workloads that model multi-process executions call this once per
// process.
func (t *Tracer) NewProcess() int {
	return int(t.nextPID.Add(1))
}

// Open opens path for reading through the tracer under the given
// simulated pid, recording the open event. The handle records its reads
// straight into the store's record of (pid, file).
func (t *Tracer) Open(pid int, path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	id := ioevent.ID{PID: pid, File: filepath.Base(path)}
	if err := t.record(ioevent.Event{ID: id, Op: ioevent.OpOpen}); err != nil {
		f.Close()
		return nil, err
	}
	obs.Log().Debug("trace: opened audited file", "pid", pid, "file", id.File)
	return &File{f: f, tracer: t, id: id, rec: t.store.File(id)}, nil
}

// File is a traced read-only file handle. It satisfies
// sdf.ByteSource, so an sdf.File opened through it is fully audited.
type File struct {
	f      *os.File
	tracer *Tracer
	id     ioevent.ID
	rec    *ioevent.FileRecord
	closed atomic.Bool
}

// ReadAt reads len(p) bytes at offset off, recording the access as an
// lseek followed by a read of the number of bytes actually
// transferred. Like any io.ReaderAt it may be called in parallel.
func (tf *File) ReadAt(p []byte, off int64) (int, error) {
	if tf.closed.Load() {
		return 0, fmt.Errorf("trace: read on closed file %s", tf.id.File)
	}
	n, err := tf.f.ReadAt(p, off)
	if rerr := tf.rec.SeekRead(off, int64(n)); rerr != nil {
		return n, rerr
	}
	if lw := tf.tracer.log.Load(); lw != nil {
		if lerr := tf.appendLog(lw, off, int64(n)); lerr != nil {
			return n, lerr
		}
	}
	return n, err
}

// appendLog appends the lseek and, when n > 0, the read that one ReadAt
// stands for to the teed log.
func (tf *File) appendLog(lw *ioevent.LogWriter, off, n int64) error {
	t := tf.tracer
	t.logMu.Lock()
	defer t.logMu.Unlock()
	if err := lw.Append(ioevent.Event{ID: tf.id, Op: ioevent.OpLseek, Offset: off}); err != nil || n == 0 {
		return err
	}
	return lw.Append(ioevent.Event{ID: tf.id, Op: ioevent.OpRead, Offset: off, Size: n})
}

// Close closes the handle and records the close event.
func (tf *File) Close() error {
	if tf.closed.Swap(true) {
		return nil
	}
	if err := tf.tracer.record(ioevent.Event{ID: tf.id, Op: ioevent.OpClose}); err != nil {
		return err
	}
	obs.Log().Debug("trace: closed audited file", "pid", tf.id.PID, "file", tf.id.File)
	return tf.f.Close()
}

// Name returns the audited file name (the event ID's file component).
func (tf *File) Name() string { return tf.id.File }
