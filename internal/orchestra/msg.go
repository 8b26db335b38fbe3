// Package orchestra is Kondo's distributed campaign orchestrator: a
// coordinator that owns one or more fuzz campaigns' seed schedules
// and drains them into leased seed batches, plus remote evaluator
// workers that pull leases over a CRC32-framed binary protocol, run
// the debloat tests through the ordinary in-process fuzz machinery,
// and stream per-seed results back.
//
// The design leans entirely on the deterministic batch-merge contract
// of internal/fuzz: every schedule decision (batch composition, RNG
// stream) and the sequential seed-order merge stay in the
// coordinator's fuzz.Run loop; workers only evaluate. A remote worker
// returns exactly the per-seed outcomes a local evaluation would, so
// a fixed-seed campaign is bit-identical whether it ran on one
// process, three remote workers, or a fleet where half the workers
// died mid-campaign and their leases were re-issued (see DESIGN.md
// §12 for the full determinism argument and the lease state machine).
package orchestra

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/array"
	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/wire"
)

// msgCodec frames every protocol message: magic "KDO1", byte-counted
// payload, 16 MiB limit (a lease of tens of thousands of seeds or a
// result carrying a dense index set stays far below it).
var msgCodec = wire.Codec{Magic: "KDO1", MaxCount: 16 << 20}

// Message types. The protocol is a worker-driven request/response
// exchange over one TCP connection: the worker sends hello once, then
// loops pull → (lease | none), result → ack; either side may end with
// bye.
const (
	msgHello  = "hello"  // worker → coord: register
	msgPull   = "pull"   // worker → coord: request a lease (long-poll)
	msgLease  = "lease"  // coord → worker: one leased span of seeds
	msgNone   = "none"   // coord → worker: no work within the poll window
	msgResult = "result" // worker → coord: per-seed outcomes of a lease
	msgAck    = "ack"    // coord → worker: result accepted or discarded
	msgBye    = "bye"    // either: orderly goodbye (drain, shutdown)
)

// Spec identifies the debloat-test evaluator a campaign runs: a
// benchmark program name plus the data-array extents it is sized to.
// The coordinator resolves it to the parameter space Θ it schedules
// over; each worker resolves the same spec to the evaluator it runs
// leases through. Both sides resolving the same spec is what makes a
// leased evaluation interchangeable with a local one.
type Spec struct {
	Program string `json:"program"`
	Dims    []int  `json:"dims,omitempty"`
}

// String renders the spec compactly for logs and cache keys.
func (s Spec) String() string {
	if len(s.Dims) == 0 {
		return s.Program
	}
	return fmt.Sprintf("%s@%v", s.Program, s.Dims)
}

// msg is the protocol envelope. One struct covers all message types;
// unused fields stay at their zero values and are elided from the
// JSON payload inside the frame.
type msg struct {
	Type string `json:"type"`

	// hello / pull
	Name   string `json:"name,omitempty"`
	WaitMS int64  `json:"wait_ms,omitempty"`

	// Clock sample, attached by the worker to pull and result
	// messages (hello carries one too, for symmetry): ClockNS is the
	// worker's monotonic reading in nanoseconds since its session
	// epoch at send time, WallNS its wall clock (unix ns, for the skew
	// metric only), TurnNS how long the worker held the previous
	// coordinator message before sending this one — the coordinator
	// subtracts it from the observed round-trip to estimate the
	// network RTT and, NTP-style, the clock offset at the midpoint.
	// All optional: a zero WallNS means no sample (older peer).
	ClockNS int64 `json:"clock_ns,omitempty"`
	WallNS  int64 `json:"wall_ns,omitempty"`
	TurnNS  int64 `json:"turn_ns,omitempty"`

	// lease (LeaseID/Attempt echoed back on result)
	LeaseID  uint64      `json:"lease_id,omitempty"`
	Attempt  int         `json:"attempt,omitempty"`
	Campaign string      `json:"campaign,omitempty"`
	Spec     Spec        `json:"spec,omitempty"`
	Seeds    [][]float64 `json:"seeds,omitempty"`
	// Trace asks the worker to record the lease's evaluation into a
	// sub-trace and piggyback it on the result.
	Trace bool `json:"trace,omitempty"`

	// result
	Outs []wireOut `json:"outs,omitempty"`
	// Events is the lease's evaluation sub-trace (when the lease asked
	// for one), timestamps relative to the worker's session epoch;
	// EventsOmitted counts events the bound cut. Metrics is a snapshot
	// of the worker's registry for coordinator-side federation. All
	// optional — an old-style result without them is still accepted.
	Events        []obs.WireEvent   `json:"events,omitempty"`
	EventsOmitted int               `json:"events_omitted,omitempty"`
	Metrics       []obs.MetricPoint `json:"metrics,omitempty"`

	// ack
	Accepted bool `json:"accepted,omitempty"`

	// bye
	Reason string `json:"reason,omitempty"`
}

// wireOut is one evaluated seed's outcome on the wire. The observed
// index set travels as its maximal runs of row-major linear
// positions — the same run representation array.IndexSet stores
// natively — so a dense I_v costs a few int64 pairs, not one entry
// per element.
type wireOut struct {
	Runs  [][2]int64 `json:"runs,omitempty"`
	Err   string     `json:"err,omitempty"`
	DurNS int64      `json:"dur_ns,omitempty"`
}

// encodeOuts converts evaluated batch outcomes to wire form.
func encodeOuts(outs []fuzz.BatchOut) []wireOut {
	ws := make([]wireOut, len(outs))
	for i, o := range outs {
		ws[i].DurNS = int64(o.Dur)
		if o.Err != nil {
			ws[i].Err = o.Err.Error()
			continue
		}
		if o.Indices != nil {
			o.Indices.EachRun(func(lo, hi int64) bool {
				ws[i].Runs = append(ws[i].Runs, [2]int64{lo, hi})
				return true
			})
		}
	}
	return ws
}

// decodeOuts reconstructs batch outcomes over the campaign's array
// space. A failing debloat test arrives as an error string and is
// recorded exactly like a local failure (the cause chain does not
// cross the wire); runs outside the space mark the slot failed rather
// than poisoning the campaign's index set.
func decodeOuts(ws []wireOut, space array.Space) []fuzz.BatchOut {
	outs := make([]fuzz.BatchOut, len(ws))
	for i, w := range ws {
		outs[i].Dur = time.Duration(w.DurNS)
		if w.Err != "" {
			outs[i].Err = errors.New(w.Err)
			continue
		}
		set := array.NewIndexSet(space)
		for _, r := range w.Runs {
			if _, err := set.AddRun(r[0], r[1]); err != nil {
				outs[i].Err = fmt.Errorf("orchestra: result run out of space: %w", err)
				break
			}
		}
		if outs[i].Err == nil {
			outs[i].Indices = set
		}
	}
	return outs
}

// writeMsg frames and writes one message.
func writeMsg(w io.Writer, m *msg) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("orchestra: encoding %s: %w", m.Type, err)
	}
	return msgCodec.Write(w, payload)
}

// readMsg reads and decodes one message frame.
func readMsg(r io.Reader) (*msg, error) {
	payload, err := msgCodec.Decode(r)
	if err != nil {
		return nil, err
	}
	var m msg
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("orchestra: decoding message: %w", err)
	}
	return &m, nil
}
