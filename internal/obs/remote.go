package obs

// Cross-process trace stitching: a process exports its trace as a
// self-describing WireTrace (events relative to its own epoch, plus
// that epoch and its lane name); the receiver merges it under a
// per-process pid, re-basing the events onto its own epoch, so one
// Chrome trace shows client and server side by side (DESIGN.md §12).

import (
	"sort"
	"time"
)

// WireEvent is the compact serializable form of one trace event.
// Timestamps are nanoseconds relative to the exporting trace's epoch;
// the receiver re-bases them in Merge.
type WireEvent struct {
	Name string `json:"n"`
	// Ph is the event phase: "" or "X" for a complete span, "i" for
	// an instant.
	Ph string `json:"ph,omitempty"`
	// TS is the event start in nanoseconds since the origin trace's
	// epoch.
	TS int64 `json:"ts"`
	// Dur is the span duration in nanoseconds (complete spans only).
	Dur int64 `json:"d,omitempty"`
	// TID is the origin's display lane.
	TID int64 `json:"t,omitempty"`
	// Args carries the event's annotations.
	Args map[string]any `json:"a,omitempty"`
}

// WireTrace is a self-describing exported trace: the events plus the
// epoch they are relative to and the process's display name, so a peer
// can merge them without out-of-band clock agreement. It is the JSON
// body of every daemon's /tracez endpoint; all fields are additive, so
// old decoders that only know Events keep working.
type WireTrace struct {
	// ProcessName labels the exporting process's lane in the merged
	// trace (e.g. "kondo-serve").
	ProcessName string `json:"process_name,omitempty"`
	// EpochUnixNS is the exporter's trace epoch as a Unix timestamp in
	// nanoseconds; event TS values are relative to it.
	EpochUnixNS int64 `json:"epoch_unix_ns"`
	// Events are the retained events in recorded order.
	Events []WireEvent `json:"events"`
	// Omitted counts retained events cut by the export bound; Dropped
	// counts events the exporter discarded over its buffer limit.
	Omitted int   `json:"omitted,omitempty"`
	Dropped int64 `json:"dropped,omitempty"`
}

// Export snapshots the trace as a WireTrace named after its LocalPID
// lane (SetProcessName), with the retained events in recorded order.
// max bounds the event count (<= 0 means all retained events); Omitted
// reports how many the bound cut, so a truncated export is visible,
// not silent. Nil-safe (returns a zero WireTrace).
func (t *Trace) Export(max int) WireTrace {
	if t == nil {
		return WireTrace{}
	}
	t.mu.Lock()
	n := len(t.events)
	if max > 0 && n > max {
		n = max
	}
	events := append([]event(nil), t.events[:n]...)
	wt := WireTrace{
		ProcessName: t.procs[LocalPID],
		EpochUnixNS: t.epoch.UnixNano(),
		Omitted:     len(t.events) - n,
		Dropped:     t.dropped,
		Events:      make([]WireEvent, 0, n),
	}
	t.mu.Unlock()

	for _, e := range events {
		we := WireEvent{
			Name: e.name,
			TS:   int64(e.start.Sub(t.epoch)),
			TID:  e.tid,
		}
		if e.ph == 'i' {
			we.Ph = "i"
		} else {
			we.Dur = int64(e.dur)
		}
		if len(e.args) > 0 {
			we.Args = make(map[string]any, len(e.args))
			for _, a := range e.args {
				we.Args[a.Key] = a.Value
			}
		}
		wt.Events = append(wt.Events, we)
	}
	return wt
}

// Merge splices an exported trace into t under pid, labeling the lane
// with wt.ProcessName (empty keeps any existing label). Each event is
// re-based from the exporter's epoch onto t's: an event at TS past
// wt.EpochUnixNS lands at that same wall-clock instant on t's
// timeline. That is exact for traces sharing a clock (one machine, or
// a sub-trace on t's own epoch) and within wall-clock skew across
// machines; a caller holding a better clock-offset estimate shifts
// EpochUnixNS by it. The peer's instant events (ph "i") are kept as
// instants. Events with unknown phases are skipped; t's limit applies
// as usual, counting overflow in Dropped. Nil-safe.
func (t *Trace) Merge(pid int, wt WireTrace) {
	if t == nil {
		return
	}
	if wt.ProcessName != "" {
		t.SetProcessName(pid, wt.ProcessName)
	}
	// time.Unix carries no monotonic reading, so this is a wall-clock
	// difference between the two epochs.
	offset := time.Unix(0, wt.EpochUnixNS).Sub(t.epoch)
	for _, we := range wt.Events {
		e := event{
			name:  we.Name,
			start: t.epoch.Add(time.Duration(we.TS) + offset),
			pid:   pid,
			tid:   we.TID,
		}
		switch we.Ph {
		case "", "X":
			e.ph = 'X'
			e.dur = time.Duration(we.Dur)
		case "i":
			e.ph = 'i'
		default:
			continue // a newer peer's phase we don't know; drop it, not the merge
		}
		if len(we.Args) > 0 {
			keys := make([]string, 0, len(we.Args))
			for k := range we.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			e.args = make([]Arg, 0, len(keys))
			for _, k := range keys {
				e.args = append(e.args, Arg{Key: k, Value: we.Args[k]})
			}
		}
		t.add(e)
	}
}
