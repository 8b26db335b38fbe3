package orchestra

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// CoordinatorPID is the coordinator's process lane in the merged
// Chrome trace (obs.LocalPID); workers get 2, 3, ... in hello order.
const CoordinatorPID = obs.LocalPID

// leaseTraceEvents bounds a piggybacked per-lease sub-trace: the
// worker records at most this many events per lease and the result
// message carries at most this many, so telemetry cannot bloat a
// result frame past the codec limit. 2048 covers a per-worker-laned
// pool evaluation of thousands of seeds with room to spare.
const leaseTraceEvents = 2048

// maxLeaseDurations bounds the completed-lease duration reservoir the
// straggler detector draws its p95 from (a ring: oldest overwritten).
const maxLeaseDurations = 1024

// FleetEvent is one lease lifecycle transition as published to
// status consumers (/fleetz/stream) and Config.OnFleetEvent. Worker
// is the display label ("alice" or the remote address), not the
// internal connection key.
type FleetEvent struct {
	Kind     string  `json:"kind"` // granted|completed|expired|reissued|late-discarded
	LeaseID  uint64  `json:"lease_id"`
	Campaign string  `json:"campaign,omitempty"`
	Worker   string  `json:"worker,omitempty"`
	Attempt  int     `json:"attempt,omitempty"`
	Seeds    int     `json:"seeds,omitempty"`
	AgeMS    float64 `json:"age_ms,omitempty"` // completed/expired: lease age
	UnixNS   int64   `json:"unix_ns"`
}

// FleetWorker is one worker's health in a FleetSnapshot.
type FleetWorker struct {
	Worker          string           `json:"worker"`
	PID             int              `json:"pid"`
	Connected       bool             `json:"connected"`
	LastSeen        time.Time        `json:"last_seen"`
	LeasesCompleted int64            `json:"leases_completed"`
	LeasesExpired   int64            `json:"leases_expired"`
	LeasesReissued  int64            `json:"leases_reissued"`
	LateResults     int64            `json:"late_results"`
	LeasesInflight  int              `json:"leases_inflight"`
	Attempts        map[string]int64 `json:"attempt_histogram,omitempty"` // completed leases by attempt
	EvalsTotal      int64            `json:"evals_total"`
	EvalsPerSec     float64          `json:"evals_per_sec"`
	ClockOffsetMS   float64          `json:"clock_offset_ms"`
	ClockRTTMS      float64          `json:"clock_rtt_ms"` // offset error bound is ±rtt/2
	ClockSkewMS     float64          `json:"clock_skew_ms"`
	ClockSamples    int              `json:"clock_samples"`
	MaxLeaseAgeMS   float64          `json:"max_lease_age_ms,omitempty"`
	Straggler       bool             `json:"straggler"`
}

// FleetSnapshot is the /fleetz view: every worker ever seen this
// process, plus the straggler threshold it was judged against.
type FleetSnapshot struct {
	Workers      []FleetWorker `json:"workers"`
	P95LeaseMS   float64       `json:"p95_lease_ms"`
	QueuedLeases int           `json:"queued_leases"`
}

// fleetWorker is the coordinator's mutable record of one worker.
type fleetWorker struct {
	key       string // latest lease-manager connection key
	label     string
	pid       int
	connected bool
	lastSeen  time.Time

	// Clock estimate (min-RTT NTP-style sample; see clockSample).
	offset  time.Duration
	rtt     time.Duration
	skew    time.Duration
	samples int

	// Coordinator-side lease tallies.
	completed int64
	expired   int64
	reissued  int64
	late      int64
	attempts  map[int]int64

	// Federated from the worker's piggybacked metrics snapshot.
	evals       int64
	evalsAt     time.Time
	evalsPerSec float64
}

// fleet is the coordinator's federation state: worker identity (pid
// assignment, connection-key → label), per-worker clock estimates and
// lease tallies, the merged trace, and the per-worker kondo_fleet_*
// instruments. The lease manager's lifecycle hook feeds it; lm.mu is
// never held while f.mu is taken (events are emitted after unlock),
// and f.mu may be held while taking lm.mu (inflight gauges), so the
// lock order is f.mu → lm.mu.
type fleet struct {
	mu        sync.Mutex
	lm        *leaseManager
	reg       *obs.Registry
	tr        *obs.Trace
	epoch     time.Time
	onEvent   func(FleetEvent)
	workers   map[string]*fleetWorker // by display label
	byKey     map[string]string       // connection key → label
	nextPID   int
	durations [maxLeaseDurations]float64 // completed lease seconds, ring
	ndur      int                        // total completed (ring fill = min(ndur, len))
}

func newFleet(lm *leaseManager) *fleet {
	return &fleet{
		lm:      lm,
		epoch:   time.Now(),
		workers: make(map[string]*fleetWorker),
		byKey:   make(map[string]string),
		nextPID: CoordinatorPID + 1,
	}
}

// bindRegistry points the fleet-level instruments at reg.
func (f *fleet) bindRegistry(reg *obs.Registry) {
	f.mu.Lock()
	f.reg = reg
	f.mu.Unlock()
	reg.GaugeFunc("kondo_fleet_workers", func() float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		n := 0
		for _, fw := range f.workers {
			if fw.connected {
				n++
			}
		}
		return float64(n)
	})
}

// bindTrace adopts tr as the merged fleet trace: the coordinator's
// own lane gets its name and every worker sub-trace re-bases onto
// tr's epoch.
func (f *fleet) bindTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	tr.SetProcessName(CoordinatorPID, "coordinator")
	f.mu.Lock()
	f.tr = tr
	f.epoch = tr.Epoch()
	f.mu.Unlock()
}

// tracing reports whether leases should request worker sub-traces.
func (f *fleet) tracing() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tr != nil
}

// hello registers (or re-binds, on reconnect) a worker: key is the
// lease-manager connection key, label the display name. First sight
// of a label assigns its pid and registers its per-worker
// instruments; a reconnect re-points them at the same record.
func (f *fleet) hello(key, label string) {
	f.mu.Lock()
	fw, ok := f.workers[label]
	if !ok {
		fw = &fleetWorker{label: label, pid: f.nextPID, attempts: make(map[int]int64)}
		f.nextPID++
		f.workers[label] = fw
	}
	fw.key = key
	fw.connected = true
	fw.lastSeen = time.Now()
	f.byKey[key] = label
	reg := f.reg
	f.mu.Unlock()
	if !ok {
		f.registerWorkerMetrics(reg, fw)
	}
}

// registerWorkerMetrics exposes one worker's health as per-worker
// labeled instruments. Closures lock f.mu (never reg's: the registry
// evaluates callbacks without holding its mutex).
func (f *fleet) registerWorkerMetrics(reg *obs.Registry, fw *fleetWorker) {
	if reg == nil {
		return
	}
	lbl := obs.L("worker", fw.label)
	get := func(field func(*fleetWorker) float64) func() float64 {
		return func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return field(fw)
		}
	}
	reg.CounterFunc("kondo_fleet_worker_evals_total", func() int64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return fw.evals
	}, lbl)
	reg.CounterFunc("kondo_fleet_worker_leases_completed_total", func() int64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return fw.completed
	}, lbl)
	reg.CounterFunc("kondo_fleet_worker_leases_expired_total", func() int64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return fw.expired
	}, lbl)
	reg.CounterFunc("kondo_fleet_worker_late_results_total", func() int64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return fw.late
	}, lbl)
	reg.GaugeFunc("kondo_fleet_worker_evals_per_sec", get(func(w *fleetWorker) float64 {
		return w.evalsPerSec
	}), lbl)
	reg.GaugeFunc("kondo_fleet_worker_clock_skew_seconds", get(func(w *fleetWorker) float64 {
		return w.skew.Seconds()
	}), lbl)
	reg.GaugeFunc("kondo_fleet_worker_leases_inflight", func() float64 {
		f.mu.Lock()
		key := fw.key
		f.mu.Unlock()
		return float64(f.lm.inflightFor(key))
	}, lbl)
}

// disconnected marks the connection's worker as gone.
func (f *fleet) disconnected(key string) {
	f.mu.Lock()
	if label, ok := f.byKey[key]; ok {
		if fw := f.workers[label]; fw != nil && fw.key == key {
			fw.connected = false
			fw.lastSeen = time.Now()
		}
	}
	f.mu.Unlock()
}

// clockSample folds one NTP-style round-trip observation into the
// worker's clock estimate. lastWrite is when the coordinator sent its
// previous message on the connection, now when the worker's message
// arrived; clockNS/wallNS are the worker's clocks at send (ns since
// its session epoch / unix ns) and turnNS how long the worker held
// our message before replying. The network round-trip is then
// (now−lastWrite)−turn; assuming symmetric paths the worker's clocks
// were read at the midpoint now−rtt/2, so
//
//	offset = (midpoint − coordinatorEpoch) − clockNS
//
// maps worker epoch-relative time onto the coordinator's trace
// timeline with error bounded by ±rtt/2. The minimum-RTT sample wins
// (its bound is tightest); wall skew updates every sample.
func (f *fleet) clockSample(key string, lastWrite, now time.Time, clockNS, wallNS, turnNS int64) {
	rtt := now.Sub(lastWrite) - time.Duration(turnNS)
	if rtt < 0 {
		rtt = 0
	}
	mid := now.Add(-rtt / 2)
	f.mu.Lock()
	defer f.mu.Unlock()
	label, ok := f.byKey[key]
	if !ok {
		return
	}
	fw := f.workers[label]
	if fw == nil {
		return
	}
	fw.lastSeen = now
	offset := mid.Sub(f.epoch) - time.Duration(clockNS)
	if fw.samples == 0 || rtt < fw.rtt {
		fw.offset = offset
		fw.rtt = rtt
	}
	fw.skew = time.Duration(wallNS - mid.UnixNano())
	fw.samples++
}

// touch refreshes a worker's liveness on any protocol message.
func (f *fleet) touch(key string) {
	f.mu.Lock()
	if label, ok := f.byKey[key]; ok {
		if fw := f.workers[label]; fw != nil {
			fw.lastSeen = time.Now()
		}
	}
	f.mu.Unlock()
}

// mergeTrace stitches a worker's piggybacked sub-trace into the
// merged fleet trace under the worker's pid, re-based by its current
// clock-offset estimate.
func (f *fleet) mergeTrace(key string, events []obs.WireEvent, omitted int) {
	f.mu.Lock()
	tr, epoch := f.tr, f.epoch
	var pid int
	var label string
	var offset time.Duration
	if l, ok := f.byKey[key]; ok {
		if fw := f.workers[l]; fw != nil {
			pid, label, offset = fw.pid, fw.label, fw.offset
		}
	}
	f.mu.Unlock()
	if tr == nil || pid == 0 {
		return
	}
	// epoch is tr's own, so shifting it by the offset estimate places
	// the worker's epoch on tr's clock exactly.
	tr.Merge(pid, obs.WireTrace{
		ProcessName: "worker:" + label,
		EpochUnixNS: epoch.Add(offset).UnixNano(),
		Events:      events,
	})
	if omitted > 0 {
		obs.Log().Debug("worker sub-trace truncated", "worker", label, "omitted", omitted)
	}
}

// metricsUpdate folds a worker's piggybacked registry snapshot into
// its fleet record, deriving evals/s from successive samples.
func (f *fleet) metricsUpdate(key string, points []obs.MetricPoint, now time.Time) {
	if len(points) == 0 {
		return
	}
	var evals int64
	seen := false
	for _, p := range points {
		if p.Name == "kondo_orchestra_worker_evals_total" && len(p.Labels) == 0 {
			evals, seen = int64(p.Value), true
		}
	}
	if !seen {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	label, ok := f.byKey[key]
	if !ok {
		return
	}
	fw := f.workers[label]
	if fw == nil {
		return
	}
	if !fw.evalsAt.IsZero() {
		if dt := now.Sub(fw.evalsAt).Seconds(); dt > 0 && evals >= fw.evals {
			fw.evalsPerSec = float64(evals-fw.evals) / dt
		}
	}
	fw.evals = evals
	fw.evalsAt = now
}

// handleLeaseEvents is the lease manager's lifecycle hook: tally per
// worker, record a coordinator-trace instant on the worker's lane,
// and forward to the status stream. Called with lm.mu released.
func (f *fleet) handleLeaseEvents(evs []leaseEvent) {
	now := time.Now()
	f.mu.Lock()
	out := make([]FleetEvent, 0, len(evs))
	tr := f.tr
	for _, ev := range evs {
		label := f.byKey[ev.worker]
		var pid int
		fw := f.workers[label]
		if fw != nil {
			pid = fw.pid
		}
		switch ev.kind {
		case LeaseCompleted:
			if fw != nil {
				fw.completed++
				fw.attempts[ev.attempt]++
			}
			f.durations[f.ndur%maxLeaseDurations] = ev.age.Seconds()
			f.ndur++
		case LeaseExpired:
			if fw != nil {
				fw.expired++
			}
		case LeaseReissued:
			if fw != nil {
				fw.reissued++
			}
		case LeaseLate:
			if fw != nil {
				fw.late++
			}
		}
		if tr == nil && f.onEvent == nil {
			continue
		}
		fe := FleetEvent{
			Kind:     ev.kind,
			LeaseID:  ev.id,
			Campaign: ev.campaign,
			Worker:   label,
			Attempt:  ev.attempt,
			Seeds:    ev.seeds,
			UnixNS:   now.UnixNano(),
		}
		if ev.age > 0 {
			fe.AgeMS = float64(ev.age) / float64(time.Millisecond)
		}
		if tr != nil {
			args := []obs.Arg{
				obs.A("lease", ev.id),
				obs.A("campaign", ev.campaign),
				obs.A("attempt", ev.attempt),
			}
			if label != "" {
				args = append(args, obs.A("worker", label))
			}
			tr.RecordInstant("orchestra.lease_"+ev.kind, pid, args...)
		}
		out = append(out, fe)
	}
	onEvent := f.onEvent
	f.mu.Unlock()
	if onEvent != nil {
		for _, fe := range out {
			onEvent(fe)
		}
	}
}

// p95Locked returns the straggler threshold in seconds (0 until
// enough completions). Callers hold f.mu.
func (f *fleet) p95Locked() float64 {
	n := f.ndur
	if n > maxLeaseDurations {
		n = maxLeaseDurations
	}
	if n < 4 { // too few completions to call anything a straggler
		return 0
	}
	ds := append([]float64(nil), f.durations[:n]...)
	sort.Float64s(ds)
	return ds[(n-1)*95/100]
}

// snapshot builds the /fleetz view.
func (f *fleet) snapshot() FleetSnapshot {
	now := time.Now()
	ages := f.lm.inflightAges(now)
	queued := f.lm.queued()

	f.mu.Lock()
	defer f.mu.Unlock()
	p95 := f.p95Locked()
	snap := FleetSnapshot{
		P95LeaseMS:   p95 * 1000,
		QueuedLeases: queued,
		Workers:      make([]FleetWorker, 0, len(f.workers)),
	}
	for _, fw := range f.workers {
		w := FleetWorker{
			Worker:          fw.label,
			PID:             fw.pid,
			Connected:       fw.connected,
			LastSeen:        fw.lastSeen,
			LeasesCompleted: fw.completed,
			LeasesExpired:   fw.expired,
			LeasesReissued:  fw.reissued,
			LateResults:     fw.late,
			LeasesInflight:  len(ages[fw.key]),
			EvalsTotal:      fw.evals,
			EvalsPerSec:     fw.evalsPerSec,
			ClockOffsetMS:   float64(fw.offset) / float64(time.Millisecond),
			ClockRTTMS:      float64(fw.rtt) / float64(time.Millisecond),
			ClockSkewMS:     float64(fw.skew) / float64(time.Millisecond),
			ClockSamples:    fw.samples,
		}
		if len(fw.attempts) > 0 {
			w.Attempts = make(map[string]int64, len(fw.attempts))
			for a, n := range fw.attempts {
				w.Attempts[strconv.Itoa(a)] = n
			}
		}
		for _, age := range ages[fw.key] {
			if s := age.Seconds(); s*1000 > w.MaxLeaseAgeMS {
				w.MaxLeaseAgeMS = s * 1000
			}
		}
		if p95 > 0 && w.MaxLeaseAgeMS > p95*1000 {
			w.Straggler = true
		}
		snap.Workers = append(snap.Workers, w)
	}
	sort.Slice(snap.Workers, func(i, j int) bool { return snap.Workers[i].PID < snap.Workers[j].PID })
	return snap
}
