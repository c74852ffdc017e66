package core

import (
	"fmt"

	"ossd/internal/fault"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// mediaFaults is the generic per-op fault injector of the media without
// native fault hooks (disk, MEMS, RAID): Media applies a fault.Plan at
// its submission boundary through it. The medium is treated as one
// element — element 0 of the plan — with a sequence number that
// advances once per read or write submitted, so injections are a pure
// function of (plan seed, op sequence) and replay identically for a
// given workload regardless of wall clock or completion interleaving.
// Flash devices do not use it: the SSD injects per-element faults inside
// its dispatch path instead.
type mediaFaults struct {
	raw  medium
	plan *fault.Plan

	seq      int64 // read/write ops submitted (the fault clock)
	injected int64
	retried  int64
	deadOps  int64
	// Bytes double-counted by retry resubmissions, subtracted from the
	// snapshot so host byte counters keep their meaning.
	retryBytesRead    int64
	retryBytesWritten int64
	// host is the injector-eye record of each host op, taken exactly
	// once at completion. Its latency and per-tenant views replace the
	// medium's in the snapshot: a retried op's true response spans both
	// services plus the pause, which the medium records as two ordinary
	// ops, and dead ops never reach the medium at all. So per-tenant
	// entries always sum to the reconciled host totals.
	host stats.Host
}

// record logs one host-visible completion (a failed op completes with
// zero response, like an errored flash request). serviced is false for
// dead ops, which moved no media bytes: the op still counts for its
// tenant, but contributes zero bytes, matching the top-level counters.
func (f *mediaFaults) record(op trace.Op, resp sim.Time, serviced bool) {
	if !serviced {
		op.Size = 0
	}
	f.host.Record(op, resp.Millis())
}

// submit injects into one read or write (frees are mapping metadata and
// bypass the injector, matching the flash path). A dead device fails
// the op immediately — no media time — while a transient fault services
// the op, waits out the retry cost, and services it again, so the retry
// is visible as both latency and extra media traffic.
func (f *mediaFaults) submit(op trace.Op, onDone func(sim.Time, error)) error {
	seq, eng := f.seq, f.raw.Engine()
	f.seq++
	if f.plan.DeadAt(0, seq) {
		f.injected++
		f.deadOps++
		// Complete as an event, not synchronously: callers (ClosedLoop,
		// driveBounded) resubmit from their completion callbacks.
		eng.CallAt(eng.Now(), faultDead, &faultOp{f: f, op: op, onDone: onDone})
		return nil
	}
	if f.plan.TransientAt(0, seq, op.Kind == trace.Write) {
		f.injected++
		f.retried++
		switch op.Kind {
		case trace.Read:
			f.retryBytesRead += op.Size
		case trace.Write:
			f.retryBytesWritten += op.Size
		}
		fo := &faultOp{f: f, op: op, onDone: onDone, start: eng.Now()}
		return f.raw.Submit(op, func(sim.Time, error) {
			// First service hit the fault: pause for the retry window,
			// then reissue. The caller sees one completion spanning both
			// services plus the pause.
			eng.CallAt(eng.Now()+f.plan.RetryCost(), faultRetry, fo)
		})
	}
	return f.raw.Submit(op, func(resp sim.Time, err error) {
		f.record(op, resp, true)
		if onDone != nil {
			onDone(resp, err)
		}
	})
}

// faultOp is the payload of a dead op's completion event and of a
// transient fault's retry event.
type faultOp struct {
	f      *mediaFaults
	op     trace.Op
	onDone func(sim.Time, error)
	start  sim.Time // first submission, for the retried op's response
}

// faultDead completes an op on a dead device with zero media time.
func faultDead(a any) {
	fo := a.(*faultOp)
	fo.f.record(fo.op, 0, false)
	if fo.onDone != nil {
		fo.onDone(0, fault.ErrElementDead)
	}
}

// faultRetry reissues an op after its retry pause.
func faultRetry(a any) {
	fo := a.(*faultOp)
	f, eng := fo.f, fo.f.raw.Engine()
	err := f.raw.Submit(fo.op, func(sim.Time, error) {
		f.record(fo.op, eng.Now()-fo.start, true)
		if fo.onDone != nil {
			fo.onDone(eng.Now()-fo.start, nil)
		}
	})
	if err != nil && fo.onDone != nil {
		fo.onDone(eng.Now()-fo.start, err)
	}
}

// reconcile adds the injector's counters to the medium's snapshot. Dead
// ops completed as errors without reaching the medium, so they are added
// to Completed and Errors here (matching the flash semantics: an errored
// request still counts as completed). Retries doubled the medium's
// per-op accounting; the duplicate completion and bytes are subtracted
// so host-facing counters stay host-facing.
func (f *mediaFaults) reconcile(s *Snapshot) {
	s.Completed += f.deadOps - f.retried
	s.Errors += f.deadOps
	s.BytesRead -= f.retryBytesRead
	s.BytesWritten -= f.retryBytesWritten
	s.FaultsInjected = f.injected
	s.FaultRetries = f.retried
	// Latency comes from the injector's histograms, which see each op's
	// true host-visible response (retry spans included). The per-tenant
	// view is replaced wholesale for the same reason: the medium's set
	// counted every retry twice and never saw dead ops, while the
	// injector's set records each host op exactly once, so per-tenant
	// entries sum to the reconciled totals above.
	s.Tenants = tenantSnapshots(f.host.Tenants)
	s.fillLatency(f.host.ReadResp, f.host.WriteResp)
}

// ReplayRecovery models the post-power-loss mount: a sequential
// closed-loop read pass over the first frac of the address space — the
// log scan that rebuilds mapping state after an unclean shutdown. frac
// <= 0 defaults to 0.25; frac is clamped to 1. The reads land on the
// device's own metrics, so a truncated-and-recovered run is directly
// comparable to an uninterrupted one.
func ReplayRecovery(d Device, frac float64) error {
	if frac <= 0 {
		frac = 0.25
	}
	if frac > 1 {
		frac = 1
	}
	space := int64(float64(d.LogicalBytes()) * frac)
	if space <= 0 {
		return fmt.Errorf("core: recovery scan window empty")
	}
	const chunk = int64(1 << 20)
	var off int64
	return ClosedLoop(d, 1, func(int) (trace.Op, bool) {
		if off >= space {
			return trace.Op{}, false
		}
		size := chunk
		if off+size > space {
			size = space - off
		}
		op := trace.Op{Kind: trace.Read, Offset: off, Size: size}
		off += size
		return op, true
	})
}
