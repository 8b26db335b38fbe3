// Package ioevent implements Kondo's fine-grained I/O event audit
// model (paper §IV-C): system-call events as ⟨id, c, l, sz⟩ four
// tuples, the merged byte ranges those events touch kept as sorted
// maximal runs, per-process range lookup, and cross-process merging of
// overlapping ranges.
package ioevent

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Op is the system-call type c of an event (paper Def. 4). Kondo
// records the type to ensure no write event took place on the data
// file.
type Op uint8

// Audited system-call kinds.
const (
	OpOpen Op = iota + 1
	OpRead
	OpLseek
	OpMmap
	OpWrite
	OpClose
)

// String returns the syscall-style name of the op.
func (o Op) String() string {
	switch o {
	case OpOpen:
		return "open"
	case OpRead:
		return "read"
	case OpLseek:
		return "lseek"
	case OpMmap:
		return "mmap"
	case OpWrite:
		return "write"
	case OpClose:
		return "close"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// accesses reports whether the op touches file bytes (and therefore
// contributes an offset range to the audit).
func (o Op) accesses() bool {
	return o == OpRead || o == OpMmap || o == OpWrite
}

// ID identifies an event: the process that issued the system call and
// the file it affects (paper Def. 4).
type ID struct {
	PID  int
	File string
}

// Event is the audit record of one system call: ⟨id, c, l, sz⟩.
type Event struct {
	ID     ID
	Op     Op
	Offset int64 // l: start byte offset in the file
	Size   int64 // sz: affected size starting from l
}

// String formats the event in the paper's e(P, c, l, sz) notation.
func (e Event) String() string {
	return fmt.Sprintf("e(P%d:%s, %s, %d, %d)", e.ID.PID, e.ID.File, e.Op, e.Offset, e.Size)
}

// Store accumulates audit events and merges the byte ranges they
// access into one FileRecord per (process, file). It answers the two
// queries Kondo needs: per-process offset-range lookup, and the merged
// accessed ranges of a file across all processes.
//
// Store is safe for concurrent use; audited workloads may be
// multi-process (the paper's example interleaves P1 and P2). Each
// record has its own lock, so processes reading different files never
// wait on each other, and the store's own lock guards only the set of
// records and the write events.
type Store struct {
	mu      sync.RWMutex
	records map[ID]*FileRecord
	order   []*FileRecord // creation order, for deterministic iteration
	writes  []Event
	// accessSeq numbers each record's first byte access, so IDs lists
	// pairs in the order they first touched file bytes.
	accessSeq atomic.Int64
}

// NewStore returns an empty event store.
func NewStore() *Store {
	return &Store{records: make(map[ID]*FileRecord)}
}

// FileRecord is the audit record of one (process, file) pair: how many
// events it issued and the byte ranges they accessed, merged as they
// arrive (paper Def. 4, §IV-C). Store.File hands one out, so a traced
// file handle can record its own reads without looking itself up in
// the store each time.
type FileRecord struct {
	store  *Store
	id     ID
	mu     sync.Mutex
	events int64
	first  int64 // accessSeq of the first byte access; 0 before it
	ranges *IntervalSet
}

// File returns the record of id, creating an empty one on first use.
// An empty record counts no event and lists in neither IDs nor Files.
func (s *Store) File(id ID) *FileRecord {
	s.mu.RLock()
	r := s.records[id]
	s.mu.RUnlock()
	if r != nil {
		return r
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r = s.records[id]; r == nil {
		r = &FileRecord{store: s, id: id, ranges: NewIntervalSet()}
		s.records[id] = r
		s.order = append(s.order, r)
	}
	return r
}

// Record ingests one event. Events whose op does not access file bytes
// (open, lseek, close) are counted but add no ranges. Write events are
// additionally retained so callers can verify the no-write assumption
// of the data-array model (paper §III).
func (s *Store) Record(e Event) error {
	if e.Op == OpWrite {
		s.mu.Lock()
		s.writes = append(s.writes, e)
		s.mu.Unlock()
	}
	r := s.File(e.ID)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events++
	if !e.Op.accesses() {
		return nil
	}
	if err := r.add(e.Offset, e.Size); err != nil {
		return fmt.Errorf("ioevent: record %s: %w", e, err)
	}
	return nil
}

// SeekRead records the lseek+read pair one positioned read stands for:
// an lseek to off and, when n > 0, a read of n bytes from there. It is
// Record of those two events without the store lookup.
func (r *FileRecord) SeekRead(off, n int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events++
	if n == 0 {
		return nil
	}
	r.events++
	if err := r.add(off, n); err != nil {
		return fmt.Errorf("ioevent: record %s: %w", Event{ID: r.id, Op: OpRead, Offset: off, Size: n}, err)
	}
	return nil
}

// add merges [off, off+size) into the record's ranges; r.mu is held.
func (r *FileRecord) add(off, size int64) error {
	if err := r.ranges.AddRun(off, size); err != nil {
		return err
	}
	if r.first == 0 {
		r.first = r.store.accessSeq.Add(1)
	}
	return nil
}

// Events returns the total number of recorded events.
func (s *Store) Events() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, r := range s.order {
		r.mu.Lock()
		n += r.events
		r.mu.Unlock()
	}
	return n
}

// Writes returns the recorded write events, if any. A non-empty result
// means the audited program mutated a data file, violating Kondo's
// read-only assumption.
func (s *Store) Writes() []Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Event(nil), s.writes...)
}

// Lookup returns the merged accessed ranges for one (process, file)
// pair, ascending, or nil if the pair issued no accesses.
func (s *Store) Lookup(id ID) []Interval {
	s.mu.RLock()
	r := s.records[id]
	s.mu.RUnlock()
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.first == 0 {
		return nil
	}
	return r.ranges.Ranges()
}

// FileRanges returns the accessed ranges of the named file merged
// across all processes — the paper's example reduces four events from
// two processes to (0,120) and (130,150).
func (s *Store) FileRanges(file string) []Interval {
	s.mu.RLock()
	defer s.mu.RUnlock()
	merged := NewIntervalSet()
	for _, r := range s.order {
		if r.id.File != file {
			continue
		}
		r.mu.Lock()
		merged.UnionWith(r.ranges)
		r.mu.Unlock()
	}
	return merged.Ranges()
}

// IDs returns every (process, file) pair that issued byte accesses, in
// the order of their first access.
func (s *Store) IDs() []ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	type seen struct {
		first int64
		id    ID
	}
	var ids []seen
	for _, r := range s.order {
		r.mu.Lock()
		if r.first != 0 {
			ids = append(ids, seen{r.first, r.id})
		}
		r.mu.Unlock()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].first < ids[j].first })
	out := make([]ID, len(ids))
	for i, x := range ids {
		out[i] = x.id
	}
	return out
}

// Files returns the distinct audited file names, sorted.
func (s *Store) Files() []string {
	seen := map[string]bool{}
	var out []string
	for _, id := range s.IDs() {
		if !seen[id.File] {
			seen[id.File] = true
			out = append(out, id.File)
		}
	}
	sort.Strings(out)
	return out
}
