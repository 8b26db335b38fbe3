package orchestra

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/fuzz"
	"repro/internal/obs"
)

// Worker is a remote evaluator: it connects to a coordinator, pulls
// leased seed spans, evaluates them through the ordinary in-process
// pool (fuzz.PoolRunner — the same engine a local campaign uses), and
// streams per-seed results back.
type Worker struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// Name labels the worker in coordinator logs. Empty uses the
	// connection's local address.
	Name string
	// Workers bounds the in-process evaluation pool per lease. Zero
	// means 1 (evaluate the span inline).
	Workers int
	// Resolve maps a lease's spec to the evaluator to run it through.
	// Nil means the workload-program resolver (EvaluatorForSpec).
	Resolve func(Spec) (fuzz.Evaluator, error)
	// PullWait is the long-poll window requested per pull. Zero means
	// DefaultPullWait.
	PullWait time.Duration
	// IdleExit makes Run return nil after this long without receiving
	// a lease. Zero means run until ctx is done or the coordinator
	// says bye.
	IdleExit time.Duration
	// MaxLeases makes the worker crash after completing this many
	// leases: on receiving the next lease it drops the connection
	// without responding or saying bye, leaving the lease inflight for
	// the coordinator to re-issue — a deterministic worker-death hook
	// for fault-injection tests and the re-issue benchmark. Zero means
	// unlimited.
	MaxLeases int
	// Registry receives the kondo_orchestra_worker_* instruments. Nil
	// falls back to the registry in the context given to Run.
	Registry *obs.Registry
}

// Run connects and serves leases until ctx is done, the coordinator
// says bye, or IdleExit/MaxLeases trips. Connection failures are
// retried with backoff for the life of ctx, so a worker may be
// started before its coordinator.
func (w *Worker) Run(ctx context.Context) error {
	resolve := w.Resolve
	if resolve == nil {
		resolve = EvaluatorForSpec
	}
	pullWait := w.PullWait
	if pullWait <= 0 {
		pullWait = DefaultPullWait
	}
	reg := w.Registry
	if reg == nil {
		reg = obs.RegistryOf(ctx)
	}
	mLeases := reg.Counter("kondo_orchestra_worker_leases_total")
	mEvals := reg.Counter("kondo_orchestra_worker_evals_total")
	gConnected := reg.Gauge("kondo_orchestra_worker_connected")
	log := obs.Log()

	// Leases resolve specs through a tiny cache: campaigns reuse one
	// spec for thousands of leases.
	type resolved struct {
		runner *fuzz.PoolRunner
		err    error
	}
	cache := map[string]resolved{}
	runnerFor := func(s Spec) (*fuzz.PoolRunner, error) {
		key := s.String()
		if r, ok := cache[key]; ok {
			return r.runner, r.err
		}
		eval, err := resolve(s)
		r := resolved{err: err}
		if err == nil {
			workers := w.Workers
			if workers <= 0 {
				workers = 1
			}
			r.runner = &fuzz.PoolRunner{Eval: eval, Workers: workers}
		}
		cache[key] = r
		return r.runner, r.err
	}

	// The session epoch anchors every per-lease sub-trace and clock
	// sample this worker ships: one timeline for the whole session, so
	// the coordinator's offset estimate applies to every lease. When
	// the worker has its own trace (-trace-out), its epoch is reused
	// so shipped events align with the local trace too.
	epoch := time.Now()
	if tr := obs.TraceOf(ctx); tr != nil {
		epoch = tr.Epoch()
	}

	served := 0
	lastLease := time.Now()
	backoff := 100 * time.Millisecond
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		conn, err := net.DialTimeout("tcp", w.Addr, 5*time.Second)
		if err != nil {
			if w.IdleExit > 0 && time.Since(lastLease) >= w.IdleExit {
				return nil
			}
			log.Debug("coordinator dial failed, retrying", "addr", w.Addr, "err", err)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			if backoff < 2*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = 100 * time.Millisecond
		gConnected.Set(1)
		err = w.serve(ctx, conn, pullWait, epoch, reg, runnerFor, mLeases, mEvals, &served, &lastLease)
		conn.Close()
		gConnected.Set(0)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case err == errByeReceived:
			return nil
		case err == errIdleExit:
			return nil
		case err == errMaxLeases:
			return fmt.Errorf("orchestra: worker crashed mid-lease after completing %d leases (MaxLeases)", served)
		default:
			log.Info("coordinator connection lost, reconnecting", "addr", w.Addr, "err", err)
		}
	}
}

// metricsInterval is the minimum spacing between registry snapshots
// piggybacked on results (the first result always carries one).
const metricsInterval = 250 * time.Millisecond

// Sentinel exits from one connection's serve loop.
var (
	errByeReceived = fmt.Errorf("orchestra: coordinator said bye")
	errIdleExit    = fmt.Errorf("orchestra: idle exit")
	errMaxLeases   = fmt.Errorf("orchestra: max leases reached")
)

// serve runs the pull/result loop on one established connection.
func (w *Worker) serve(ctx context.Context, conn net.Conn, pullWait time.Duration,
	epoch time.Time, reg *obs.Registry,
	runnerFor func(Spec) (*fuzz.PoolRunner, error),
	mLeases, mEvals *obs.Counter, served *int, lastLease *time.Time) error {

	log := obs.Log()

	// lastRecv is when the last coordinator message was read;
	// stamp attaches a clock sample with the turnaround since then,
	// letting the coordinator subtract worker-side processing from its
	// observed round-trip.
	var lastRecv time.Time
	// lastMetrics throttles the registry snapshot piggyback: fleet
	// health tolerates a slightly stale snapshot, and snapshotting on
	// every result would dominate the cost of small leases.
	var lastMetrics time.Time
	stamp := func(m *msg) *msg {
		now := time.Now()
		m.ClockNS = int64(now.Sub(epoch))
		m.WallNS = now.UnixNano()
		if !lastRecv.IsZero() {
			m.TurnNS = int64(now.Sub(lastRecv))
		}
		return m
	}

	if err := writeMsg(conn, stamp(&msg{Type: msgHello, Name: w.Name})); err != nil {
		return err
	}
	for {
		if ctx.Err() != nil {
			_ = writeMsg(conn, &msg{Type: msgBye, Reason: "worker draining"})
			return ctx.Err()
		}
		if w.IdleExit > 0 && time.Since(*lastLease) >= w.IdleExit {
			_ = writeMsg(conn, &msg{Type: msgBye, Reason: "idle"})
			return errIdleExit
		}
		if err := writeMsg(conn, stamp(&msg{Type: msgPull, WaitMS: pullWait.Milliseconds()})); err != nil {
			return err
		}
		_ = conn.SetReadDeadline(time.Now().Add(4*pullWait + time.Minute))
		m, err := readMsg(conn)
		if err != nil {
			return err
		}
		lastRecv = time.Now()
		switch m.Type {
		case msgNone:
			continue

		case msgLease:
			if w.MaxLeases > 0 && *served >= w.MaxLeases {
				// Crash hook: vanish mid-lease, without a result or a
				// bye, so the coordinator must detect the death and
				// re-issue the lease we are holding.
				return errMaxLeases
			}
			*lastLease = time.Now()
			mLeases.Inc()
			runner, rerr := runnerFor(m.Spec)
			res := &msg{Type: msgResult, LeaseID: m.LeaseID}
			if rerr != nil {
				// An unresolvable spec fails every slot of the lease —
				// reported per seed so the coordinator records ordinary
				// debloat-test failures, not a dead campaign.
				outs := make([]fuzz.BatchOut, len(m.Seeds))
				for i := range outs {
					outs[i].Err = fmt.Errorf("orchestra: resolving spec %s: %w", m.Spec, rerr)
				}
				res.Outs = encodeOuts(outs)
			} else {
				// When the coordinator asks, the lease evaluates under
				// a bounded sub-trace on the session epoch, shipped on
				// the result for fleet-trace stitching. Telemetry only
				// observes the evaluation — outs are identical with
				// tracing on or off.
				evalCtx := ctx
				var ltr *obs.Trace
				if m.Trace {
					ltr = obs.NewTraceAt(epoch)
					ltr.SetLimit(leaseTraceEvents)
					evalCtx = obs.WithTrace(ctx, ltr)
				}
				sp := obs.Start(evalCtx, "orchestra.lease")
				if sp != nil {
					sp.Arg("lease", m.LeaseID).Arg("seeds", len(m.Seeds)).Arg("attempt", m.Attempt)
				}
				outs, _ := runner.RunBatch(evalCtx, m.Seeds) // PoolRunner never errors
				sp.End()
				mEvals.Add(int64(len(outs)))
				res.Outs = encodeOuts(outs)
				if ltr != nil {
					wt := ltr.Export(leaseTraceEvents)
					res.Events = wt.Events
					res.EventsOmitted = wt.Omitted + int(wt.Dropped)
					// Keep the worker's own trace whole: the sub-trace
					// shares its epoch, so the merge is zero-offset.
					obs.TraceOf(ctx).Merge(obs.LocalPID, wt)
				}
			}
			if lastMetrics.IsZero() || time.Since(lastMetrics) >= metricsInterval {
				res.Metrics = reg.Snapshot()
				lastMetrics = time.Now()
			}
			if err := writeMsg(conn, stamp(res)); err != nil {
				return err
			}
			_ = conn.SetReadDeadline(time.Now().Add(time.Minute))
			ack, err := readMsg(conn)
			if err != nil {
				return err
			}
			if ack.Type != msgAck {
				return fmt.Errorf("orchestra: expected ack, got %q", ack.Type)
			}
			if !ack.Accepted {
				log.Debug("lease result discarded as late", "lease", m.LeaseID, "attempt", m.Attempt)
			}
			*served++

		case msgBye:
			return errByeReceived

		default:
			return fmt.Errorf("orchestra: unexpected message type %q", m.Type)
		}
	}
}
