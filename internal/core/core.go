// Package core is the public facade of the library: one Device interface
// spanning every simulated substrate — SSD, HDD, MEMS, RAID, and the
// object-fronted SSD — plus the device registry (Open, Build),
// the bandwidth-measurement harness used by the paper's Table 2, and the
// named device profiles the experiments run against. Examples,
// command-line tools, and benchmarks consume this package; the internal
// substrates stay swappable behind it.
package core

import (
	"fmt"
	"math"

	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// Device is the block-level view shared by all media models: submit timed
// operations (free — TRIM/delete — notifications included), drive a
// workload stream, and snapshot metrics, all on a simulated clock.
// Closed-loop replay is the package function ClosedLoop, written once
// over Submit and the engine. A Device owns its engine; device instances
// are independent simulations and may run concurrently with each other
// (never individually shared across goroutines).
type Device interface {
	// Submit enqueues an operation at the current simulated time; onDone
	// (optional) receives the response time when it completes. A
	// trace.Free op tells the device a byte range no longer holds live
	// data (the §3.5 signal); media without block management complete it
	// as a metadata-only no-op.
	Submit(op trace.Op, onDone func(resp sim.Time, err error)) error
	// Drive replays a workload stream to completion, open loop: each
	// operation arrives at its trace timestamp. Timestamps must be
	// nondecreasing (every generator and the §3.4 aligner satisfy this);
	// an op whose timestamp is in the past is submitted immediately, so
	// out-of-order traces replay in stream order, not timestamp order.
	// Operations are pulled one at a time, so memory stays constant in
	// the stream's length. A mid-stream Submit error stops the replay,
	// but Drive still drains the device before returning it: every
	// completion already in flight has fired by the time Drive returns.
	// Devices built with WithMaxPending additionally apply admission
	// control: once that many requests are outstanding, further arrivals
	// are paced to completions instead of piling up unbounded queue
	// state.
	Drive(s trace.Stream) error
	// Engine returns the simulation engine.
	Engine() *sim.Engine
	// LogicalBytes reports the usable capacity.
	LogicalBytes() int64
	// QueueDepth reports requests accepted by the device but not yet
	// dispatched to media — the backlog admission control bounds.
	QueueDepth() int
	// Metrics reports a device-independent snapshot of activity so far.
	Metrics() Snapshot
}

// Snapshot is the metrics view common to every Device. Substrate-specific
// detail (GC stats, seek counts, parity traffic) stays on the wrapped
// model, reachable through each wrapper's Raw field. The JSON tags are
// the service serialization (internal/simsvc, cmd/repro -json).
type Snapshot struct {
	// Completed counts finished requests, including frees.
	Completed int64 `json:"completed"`
	// BytesRead and BytesWritten count host data moved.
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	// Frees counts completed free notifications. Every medium counts
	// them, whether or not it acts on them: on media without
	// block management a free completes as a metadata no-op but still
	// increments this field.
	Frees int64 `json:"frees"`
	// Errors counts failed requests (flash wear-out; zero elsewhere).
	Errors int64 `json:"errors"`
	// MeanReadMs and MeanWriteMs are mean response times in milliseconds.
	MeanReadMs  float64 `json:"mean_read_ms"`
	MeanWriteMs float64 `json:"mean_write_ms"`
	// P50/P95/P99 read and write response-time percentiles in
	// milliseconds, estimated from each substrate's log-bucketed
	// response histograms (stats.Histogram): tail latency, not just
	// means, on every medium.
	P50ReadMs  float64 `json:"p50_read_ms"`
	P95ReadMs  float64 `json:"p95_read_ms"`
	P99ReadMs  float64 `json:"p99_read_ms"`
	P50WriteMs float64 `json:"p50_write_ms"`
	P95WriteMs float64 `json:"p95_write_ms"`
	P99WriteMs float64 `json:"p99_write_ms"`
	// FaultsInjected and FaultRetries count injected fault events and the
	// in-device retries they triggered; RetiredBlocks and RemappedPages
	// count wear-ceiling retirements and the pages relocated off retired
	// blocks. All four are zero on devices built without a fault plan.
	// None of the Snapshot fields use omitempty: every device kind
	// serializes the same key set, faulted or not, so reports and campaign
	// cells stay column-stable.
	FaultsInjected int64 `json:"faults_injected"`
	FaultRetries   int64 `json:"fault_retries"`
	RetiredBlocks  int64 `json:"retired_blocks"`
	RemappedPages  int64 `json:"remapped_pages"`
	// Tenants breaks read/write activity down per tenant class, in tenant
	// order, one entry per tenant that completed at least one transfer
	// (single-tenant runs report one entry for tenant 0; a device that saw
	// no reads or writes reports none). Populated uniformly by all five
	// wrappers. Frees and errors are device-global and stay on the top
	// level; for every tenant-attributed statistic the entries sum to the
	// totals above.
	Tenants []TenantSnapshot `json:"tenants"`
}

// TenantSnapshot is one tenant's slice of the device activity: the
// count/bytes/latency view of Snapshot, scoped to the ops tagged with
// that tenant ID.
type TenantSnapshot struct {
	Tenant       int     `json:"tenant"`
	Reads        int64   `json:"reads"`
	Writes       int64   `json:"writes"`
	BytesRead    int64   `json:"bytes_read"`
	BytesWritten int64   `json:"bytes_written"`
	MeanReadMs   float64 `json:"mean_read_ms"`
	MeanWriteMs  float64 `json:"mean_write_ms"`
	P50ReadMs    float64 `json:"p50_read_ms"`
	P95ReadMs    float64 `json:"p95_read_ms"`
	P99ReadMs    float64 `json:"p99_read_ms"`
	P50WriteMs   float64 `json:"p50_write_ms"`
	P95WriteMs   float64 `json:"p95_write_ms"`
	P99WriteMs   float64 `json:"p99_write_ms"`
}

// tenantSnapshots converts a per-tenant accumulator set into the
// Snapshot's serialized form — one implementation for all five wrappers,
// with the same non-finite guard as the top-level latency fields.
func tenantSnapshots(ts stats.TenantSet) []TenantSnapshot {
	if ts.Len() == 0 {
		return nil
	}
	out := make([]TenantSnapshot, 0, ts.Len())
	for _, a := range ts.Entries() {
		out = append(out, TenantSnapshot{
			Tenant:       int(a.Tenant),
			Reads:        a.Reads,
			Writes:       a.Writes,
			BytesRead:    a.BytesRead,
			BytesWritten: a.BytesWritten,
			MeanReadMs:   latencyMs(a.ReadResp.Mean()),
			MeanWriteMs:  latencyMs(a.WriteResp.Mean()),
			P50ReadMs:    latencyMs(a.ReadResp.Percentile(50)),
			P95ReadMs:    latencyMs(a.ReadResp.Percentile(95)),
			P99ReadMs:    latencyMs(a.ReadResp.Percentile(99)),
			P50WriteMs:   latencyMs(a.WriteResp.Percentile(50)),
			P95WriteMs:   latencyMs(a.WriteResp.Percentile(95)),
			P99WriteMs:   latencyMs(a.WriteResp.Percentile(99)),
		})
	}
	return out
}

// hostSnapshot converts the host accounting every substrate embeds in
// its metrics (stats.Host) into a Snapshot — one conversion for all five
// wrappers. The substrate-specific fields (errors, fault counters) are
// left for the caller.
func hostSnapshot(h stats.Host) Snapshot {
	s := Snapshot{
		Completed:    h.Completed,
		BytesRead:    h.BytesRead,
		BytesWritten: h.BytesWritten,
		Frees:        h.Frees,
		Tenants:      tenantSnapshots(h.Tenants),
	}
	s.fillLatency(h.ReadResp, h.WriteResp)
	return s
}

// fillLatency populates the mean and percentile response-time fields
// from a pair of response histograms. Every field passes through
// latencyMs: a device that saw no reads (or no writes) reports 0 for
// that side, never NaN or ±Inf — encoding/json rejects both, and one
// poisoned field fails an entire simsvc payload.
func (s *Snapshot) fillLatency(read, write stats.Histogram) {
	s.MeanReadMs = latencyMs(read.Mean())
	s.MeanWriteMs = latencyMs(write.Mean())
	s.P50ReadMs = latencyMs(read.Percentile(50))
	s.P95ReadMs = latencyMs(read.Percentile(95))
	s.P99ReadMs = latencyMs(read.Percentile(99))
	s.P50WriteMs = latencyMs(write.Percentile(50))
	s.P95WriteMs = latencyMs(write.Percentile(95))
	s.P99WriteMs = latencyMs(write.Percentile(99))
}

// latencyMs guards a serialized latency statistic against non-finite
// values from empty or degenerate histograms.
func latencyMs(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// ---- shared workload loops ----
//
// Open-loop replay (drive) and closed-loop replay (ClosedLoop) are
// written once, in terms of nothing but Submit and the engine, for all
// five substrates.

// driveLoop is the arrival pump behind drive and driveBounded. One
// driveLoop is allocated per Drive call and then pumps the whole stream
// through the engine's pooled event path: the next arrival is always
// scheduled as (arrive, loop) — a package-level function plus this
// pointer — so replay costs zero allocations per operation. Only one
// pending arrival (op) exists at any moment, which also keeps memory
// constant in the stream's length.
type driveLoop struct {
	d      Device
	eng    *sim.Engine
	s      trace.Stream
	arrive func(any) // arriveEvent or arriveBoundedEvent
	op     trace.Op  // the scheduled (or held) arrival

	// Admission-control state (driveBounded only).
	maxPending  int
	outstanding int
	held        bool
	onDone      func(sim.Time, error) // one shared completion callback

	err error
}

// next pulls one operation and schedules its arrival at its trace
// timestamp, clamped to now.
func (dl *driveLoop) next() {
	op, ok := dl.s.Next()
	if !ok {
		return
	}
	at := op.At
	if now := dl.eng.Now(); at < now {
		at = now
	}
	dl.op = op
	dl.eng.CallAt(at, dl.arrive, dl)
}

// arriveEvent is the unbounded arrival: submit, then pull the next op.
// Submission precedes the next pull so a mid-stream error stops the
// stream at the failing op; the engine run then drains whatever is
// already in flight before drive returns.
func arriveEvent(a any) {
	dl := a.(*driveLoop)
	if err := dl.d.Submit(dl.op, nil); err != nil {
		dl.err = err
		return
	}
	dl.next()
}

// arriveBoundedEvent is the admission-controlled arrival: a full window
// parks the op (held) until a completion frees a slot.
func arriveBoundedEvent(a any) {
	dl := a.(*driveLoop)
	if dl.outstanding >= dl.maxPending {
		dl.held = true
		return
	}
	if dl.submit() {
		dl.next()
	}
}

// submit issues the current op, maintaining the outstanding window. It
// reports whether the pull loop should continue; a Submit error stops
// the stream (the engine still drains in-flight completions).
func (dl *driveLoop) submit() bool {
	dl.outstanding++
	if err := dl.d.Submit(dl.op, dl.onDone); err != nil {
		dl.outstanding--
		if dl.err == nil {
			dl.err = err
		}
		return false
	}
	return true
}

// finish drains the engine and folds in the stream's own error. Running
// the engine after the pull loop stops — on exhaustion or on a Submit
// error — guarantees every in-flight completion callback has fired
// before Drive returns, so callbacks never run against a caller that
// has already moved on.
func (dl *driveLoop) finish() error {
	dl.eng.Run()
	if dl.err == nil {
		dl.err = trace.Err(dl.s)
	}
	return dl.err
}

// drive pulls operations from s one at a time, scheduling each arrival
// at its trace timestamp (clamped to now — timestamps are treated as
// nondecreasing), and runs the engine until the device drains. A
// mid-stream Submit error stops the pull loop, but the engine still
// drains: Drive returns the first error only after every completion
// already in flight has run.
//
// maxPending > 0 enables admission control: once that many requests are
// outstanding (submitted, not yet completed), the next arrival is held
// and submitted at the completion that frees a slot — an open-loop storm
// the device cannot absorb degrades into pacing instead of unbounded
// queue growth. Ops are never shed; with a bound, arrivals can complete
// later than their trace timestamps. maxPending <= 0 is the unbounded
// legacy behavior.
func drive(d Device, s trace.Stream, maxPending int) error {
	if maxPending > 0 {
		return driveBounded(d, s, maxPending)
	}
	dl := &driveLoop{d: d, eng: d.Engine(), s: s, arrive: arriveEvent}
	dl.next()
	return dl.finish()
}

// driveBounded is drive with admission control. Every op is submitted
// with one shared completion callback that maintains the outstanding
// count; when an arrival finds the window full, it parks (held) until a
// completion drains the window below the bound, then resumes the pull
// loop. Determinism is preserved: completions are simulation events, so
// the paced arrival times are a pure function of the workload.
func driveBounded(d Device, s trace.Stream, maxPending int) error {
	dl := &driveLoop{d: d, eng: d.Engine(), s: s, arrive: arriveBoundedEvent, maxPending: maxPending}
	dl.onDone = func(sim.Time, error) {
		dl.outstanding--
		if dl.err != nil {
			// The stream already stopped on an error; keep draining
			// completions without submitting more work.
			return
		}
		if dl.held && dl.outstanding < dl.maxPending {
			dl.held = false
			if dl.submit() {
				dl.next()
			}
		}
	}
	dl.next()
	return dl.finish()
}

// ClosedLoop keeps depth requests outstanding on d, drawing operations
// from gen until it returns false, then runs the engine to completion.
// Each op's At field is ignored: arrivals happen on completions. It
// returns the first submission error.
func ClosedLoop(d Device, depth int, gen func(i int) (trace.Op, bool)) error {
	if depth <= 0 {
		depth = 1
	}
	eng := d.Engine()
	var firstErr error
	i := 0
	var issue func()
	// One completion callback for the whole loop, not one per op.
	onDone := func(sim.Time, error) { issue() }
	issue = func() {
		op, ok := gen(i)
		if !ok {
			return
		}
		i++
		if err := d.Submit(op, onDone); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for k := 0; k < depth; k++ {
		issue()
	}
	eng.Run()
	return firstErr
}

// SSD wraps the flash device as a core.Device while keeping the rich
// internal API reachable via Raw.
type SSD struct {
	Raw        *ssd.Device
	maxPending int // Drive's admission bound; 0 is unbounded
}

// newSSD builds a flash device on a fresh engine. maxPending is Drive's
// admission bound.
func newSSD(cfg ssd.Config, maxPending int) (*SSD, error) {
	dev, err := ssd.New(sim.NewEngine(), cfg)
	if err != nil {
		return nil, err
	}
	return &SSD{Raw: dev, maxPending: maxPending}, nil
}

// Submit implements Device.
func (s *SSD) Submit(op trace.Op, onDone func(sim.Time, error)) error {
	return s.Raw.Submit(op, onDone)
}

// Drive implements Device.
func (s *SSD) Drive(st trace.Stream) error { return drive(s, st, s.maxPending) }

// Engine implements Device.
func (s *SSD) Engine() *sim.Engine { return s.Raw.Engine() }

// LogicalBytes implements Device.
func (s *SSD) LogicalBytes() int64 { return s.Raw.LogicalBytes() }

// QueueDepth implements Device.
func (s *SSD) QueueDepth() int { return s.Raw.QueueDepth() }

// ssdSnapshot converts the flash device's metrics; shared by the SSD
// and OSD wrappers, which front the same model.
func ssdSnapshot(m ssd.Metrics) Snapshot {
	s := hostSnapshot(m.Host)
	s.Errors = m.Errors
	s.FaultsInjected = m.FaultsInjected
	s.FaultRetries = m.FaultRetries
	s.RetiredBlocks = m.RetiredBlocks
	s.RemappedPages = m.RemappedPages
	return s
}

// Metrics implements Device.
func (s *SSD) Metrics() Snapshot { return ssdSnapshot(s.Raw.Metrics()) }

var _ Device = (*SSD)(nil)

// Precondition sequentially writes the whole device once so that every
// logical page is mapped: reads hit real media and overwrites trigger
// read-modify-write and cleaning, which is the steady state the paper's
// measurements reflect.
func Precondition(d Device, chunk int64) error {
	return PreconditionFrac(d, chunk, 1.0)
}

// PreconditionFrac fills only the first frac of the address space. Device
// utilization governs garbage-collection cost (victim blocks at u
// utilization are ~u full, so cleaning one block reclaims ~(1-u) of it);
// experiments choose the utilization their workload represents instead of
// always paying the worst case.
//
// The fill is ordinary simulated writes of chunk bytes each. On an SSD
// each write is planned as at most one run per element, and each FTL
// programs its run a block segment at a time, so the set-up costs per
// request and segment, not per page. A write that fails on one element
// (wear-out) still writes its other elements' runs and completes with
// the first error in element order; the fill goes on, and the device
// counts the error in its metrics.
func PreconditionFrac(d Device, chunk int64, frac float64) error {
	if chunk <= 0 {
		chunk = 1 << 20
	}
	if frac <= 0 || frac > 1 {
		return fmt.Errorf("core: precondition fraction %v out of (0, 1]", frac)
	}
	space := int64(float64(d.LogicalBytes()) * frac)
	var off int64
	return ClosedLoop(d, 1, func(int) (trace.Op, bool) {
		if off >= space {
			return trace.Op{}, false
		}
		size := chunk
		if off+size > space {
			size = space - off
		}
		op := trace.Op{Kind: trace.Write, Offset: off, Size: size}
		off += size
		return op, true
	})
}

// Pattern selects the access pattern of a bandwidth measurement.
type Pattern int

const (
	// Sequential walks the address space in order.
	Sequential Pattern = iota
	// Random draws uniform aligned offsets.
	Random
)

// BWOptions configures a bandwidth measurement.
type BWOptions struct {
	// Kind is trace.Read or trace.Write.
	Kind trace.Kind
	// Pattern is Sequential or Random.
	Pattern Pattern
	// ReqBytes is the request size.
	ReqBytes int64
	// TotalBytes bounds the bytes moved by the measurement.
	TotalBytes int64
	// Depth is the closed-loop queue depth.
	Depth int
	// Seed drives the random pattern.
	Seed int64
}

// MeasureBandwidth runs a closed-loop scan and returns MB/s over the
// measurement window (first submission to last completion).
func MeasureBandwidth(d Device, o BWOptions) (float64, error) {
	if o.ReqBytes <= 0 || o.TotalBytes < o.ReqBytes {
		return 0, fmt.Errorf("core: bad measurement sizes: req %d total %d", o.ReqBytes, o.TotalBytes)
	}
	space := d.LogicalBytes()
	if o.ReqBytes > space {
		return 0, fmt.Errorf("core: request larger than device")
	}
	rng := sim.NewRNG(o.Seed)
	slots := space / o.ReqBytes
	n := int(o.TotalBytes / o.ReqBytes)
	start := d.Engine().Now()
	var off int64
	i := 0
	err := ClosedLoop(d, o.Depth, func(int) (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		i++
		var o2 int64
		switch o.Pattern {
		case Sequential:
			if off+o.ReqBytes > space {
				off = 0
			}
			o2 = off
			off += o.ReqBytes
		case Random:
			o2 = rng.Int63n(slots) * o.ReqBytes
		}
		return trace.Op{Kind: o.Kind, Offset: o2, Size: o.ReqBytes}, true
	})
	if err != nil {
		return 0, err
	}
	elapsed := (d.Engine().Now() - start).Seconds()
	if elapsed <= 0 {
		return 0, fmt.Errorf("core: measurement window empty")
	}
	return float64(int64(n)*o.ReqBytes) / 1e6 / elapsed, nil
}
