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
// access into one IntervalSet per (process, file). It answers the two
// queries Kondo needs: per-process offset-range lookup, and the merged
// accessed ranges of a file across all processes.
//
// Store is safe for concurrent use; audited workloads may be
// multi-process (the paper's example interleaves P1 and P2).
type Store struct {
	mu       sync.RWMutex
	perID    map[ID]*IntervalSet
	events   int64
	writes   []Event
	perIDIDs []ID // insertion order for deterministic iteration
}

// NewStore returns an empty event store.
func NewStore() *Store {
	return &Store{perID: make(map[ID]*IntervalSet)}
}

// Record ingests one event. Events whose op does not access file bytes
// (open, lseek, close) are counted but add no ranges. Write events are
// additionally retained so callers can verify the no-write assumption
// of the data-array model (paper §III).
func (s *Store) Record(e Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events++
	if e.Op == OpWrite {
		s.writes = append(s.writes, e)
	}
	if !e.Op.accesses() {
		return nil
	}
	set, ok := s.perID[e.ID]
	if !ok {
		set = NewIntervalSet()
		s.perID[e.ID] = set
		s.perIDIDs = append(s.perIDIDs, e.ID)
	}
	if err := set.AddRun(e.Offset, e.Size); err != nil {
		return fmt.Errorf("ioevent: record %s: %w", e, err)
	}
	return nil
}

// Events returns the total number of recorded events.
func (s *Store) Events() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.events
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
	defer s.mu.RUnlock()
	set, ok := s.perID[id]
	if !ok {
		return nil
	}
	return set.Ranges()
}

// FileRanges returns the accessed ranges of the named file merged
// across all processes — the paper's example reduces four events from
// two processes to (0,120) and (130,150).
func (s *Store) FileRanges(file string) []Interval {
	s.mu.RLock()
	defer s.mu.RUnlock()
	merged := NewIntervalSet()
	for _, id := range s.perIDIDs {
		if id.File != file {
			continue
		}
		merged.UnionWith(s.perID[id])
	}
	return merged.Ranges()
}

// IDs returns every (process, file) pair that issued byte accesses, in
// first-seen order.
func (s *Store) IDs() []ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]ID(nil), s.perIDIDs...)
}

// Files returns the distinct audited file names, sorted.
func (s *Store) Files() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := map[string]bool{}
	var out []string
	for _, id := range s.perIDIDs {
		if !seen[id.File] {
			seen[id.File] = true
			out = append(out, id.File)
		}
	}
	sort.Strings(out)
	return out
}
