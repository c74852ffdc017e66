package ssd

import (
	"fmt"
	"math/bits"
	"slices"

	"ossd/internal/ftl"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// request is one I/O in flight through the device, with its lifecycle
// timestamps filled in as it progresses. Requests are pooled: complete
// recycles one as soon as its completion callback returns.
type request struct {
	// Op is the originating trace operation.
	Op trace.Op
	// Arrive, Start, Done are the queue-entry, dispatch, and completion
	// times on the simulated clock.
	Arrive, Start, Done sim.Time
	// Err records a device error (wear-out, capacity); nil on success.
	Err error

	onDone func(resp sim.Time, err error)
	// dev and remaining carry the completion state through the engine's
	// pooled events: remaining counts the completion events still owed
	// to this request, one per distinct instant at which busy elements
	// finish plus one for the host link, and dev lets the package-level
	// event callbacks reach the device without a closure per event.
	dev       *Device
	remaining int32
	// internal marks buffer-drain requests: they do the media work for an
	// already-acknowledged buffered write and stay out of host metrics.
	internal bool
	// qn is the request's dispatch-queue record while it waits; pooled
	// reuse keeps its queue id.
	qn sched.Node[request]
}

// reqCost is a request's dispatch cost for the fair-share scheduler.
func reqCost(r *request) int64 { return r.Op.Size }

// Metrics accumulates device-level measurements.
type Metrics struct {
	// Host is the host-visible accounting shared with every media model.
	// Completed counts finished requests, errors included; Frees counts
	// free notifications processed successfully.
	stats.Host
	// Requests counts arrivals.
	Requests int64
	// PriResp and BgResp are response-time histograms in milliseconds for
	// priority (foreground) and normal (background) requests (§3.6).
	PriResp, BgResp stats.Histogram
	// Errors counts failed requests.
	Errors int64
	// BackgroundCleans counts cleaning passes initiated by the device
	// (watermark-driven), as opposed to the FTL's internal safety valve.
	BackgroundCleans int64
	// BufferedWrites counts writes absorbed by the write buffer;
	// BufferBypass counts writes that found it full.
	BufferedWrites, BufferBypass int64
	// FaultsInjected counts faults injected by the device's fault plan;
	// FaultRetries counts those recovered by an in-device retry.
	// RetiredBlocks and RemappedPages aggregate the FTLs' wear-ceiling
	// retirement activity. All four are computed fresh by Metrics().
	FaultsInjected, FaultRetries int64
	RetiredBlocks, RemappedPages int64
}

// GCStats aggregates FTL cleaning counters across the gang.
type GCStats struct {
	HostPageReads, HostPageWrites int64
	PagesMoved                    int64
	Cleans, GCErases, Migrations  int64
	CleanTime                     sim.Time
	FreesSeen, FreesApplied       int64
	RetiredBlocks, RemappedPages  int64
}

// Device is the simulated SSD.
type Device struct {
	cfg   Config
	eng   *sim.Engine
	elems []ftl.Backend

	// Derived layout parameters.
	chunkBytes    int64 // FullStripe: contiguous bytes per element per stripe
	pagesPerChunk int
	logicalBytes  int64

	// q indexes the pending requests and owns the per-element busy
	// horizons; drv runs the shared dispatch loop with the cleaning
	// passes as its pre/post hooks.
	q        *sched.Queue[request]
	drv      *sched.Driver[request]
	linkBusy sim.Time // host-interface link occupancy (InterfaceMBps)
	// runs is reused by plan, elemScratch by elemsFor and durScratch by
	// serve, so neither enqueueing nor dispatching allocates per request.
	runs        []run
	elemScratch []int
	durScratch  []sim.Time
	// outstandingPri counts priority requests queued or in service; the
	// priority-aware cleaner consults it (§3.6).
	outstandingPri int
	// bufOccupancy tracks undrained bytes in the write buffer.
	bufOccupancy int64

	// freeReqs is the request freelist. Steady-state submission reuses
	// completed requests, so the host path allocates nothing. The list
	// grows from reqChunk, which takeReq refills reqChunkLen records at
	// a time, so a deep backlog costs one allocation per chunk, not one
	// per request.
	freeReqs sched.Pool[request]
	reqChunk []request

	// cleanSet is a bitset over element numbers: bit e is set iff e's FTL
	// is below the low watermark with something to reclaim. The
	// predicate depends only on e's FTL state, so it is refreshed where
	// that state changes (serve, startClean); the cleaning hooks visit
	// only set elements.
	cleanSet []uint64

	// flt, when non-nil, injects the config's fault plan at dispatch.
	flt *faultState

	met Metrics
}

// New builds a device on the given engine.
func New(eng *sim.Engine, cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:         cfg,
		eng:         eng,
		elems:       make([]ftl.Backend, 0, cfg.Elements),
		runs:        make([]run, 0, cfg.Elements),
		elemScratch: make([]int, 0, cfg.Elements),
		durScratch:  make([]sim.Time, 0, cfg.Elements),
		cleanSet:    make([]uint64, (cfg.Elements+63)/64),
	}
	fcfg := cfg.ftlConfig()
	for i := 0; i < cfg.Elements; i++ {
		el, err := ftl.NewBackend(cfg.Scheme, fcfg)
		if err != nil {
			return nil, err
		}
		d.elems = append(d.elems, el)
	}
	if cfg.Fault.Injects() {
		d.flt = newFaultState(cfg.Fault, cfg.Elements)
	}
	d.q = sched.NewQueue(cfg.Scheduler, cfg.Elements, reqCost)
	// Map iteration order is irrelevant here: the queue keeps its tenant
	// ring sorted by ID, so any insertion order yields the same ring.
	for t, w := range cfg.TenantWeights {
		d.q.SetTenantWeight(t, w)
	}
	d.drv = sched.NewDriver(eng, d.q, d.serve)
	// Opportunistic cleaning exists only on a priority-aware device with
	// a low watermark; elsewhere the post hook is absent.
	var post func(sim.Time) bool
	if cfg.PriorityAware && cfg.GCLow > 0 {
		post = d.opportunisticClean
	}
	d.drv.SetHooks(d.mandatoryClean, post)
	perElemPages := d.elems[0].LogicalPages()
	pageSize := int64(cfg.Geom.PageSize)
	switch cfg.Layout {
	case FullStripe:
		d.chunkBytes = cfg.StripeBytes / int64(cfg.Elements)
		d.pagesPerChunk = int(d.chunkBytes / pageSize)
		stripes := perElemPages / d.pagesPerChunk
		d.logicalBytes = int64(stripes) * cfg.StripeBytes
	case Interleaved:
		d.logicalBytes = int64(perElemPages) * pageSize * int64(cfg.Elements)
	}
	if d.logicalBytes <= 0 {
		return nil, fmt.Errorf("ssd: configuration exports no capacity")
	}
	d.resyncCleanSet()
	return d, nil
}

// Engine returns the simulation engine driving the device.
func (d *Device) Engine() *sim.Engine { return d.eng }

// LogicalBytes reports the exported capacity.
func (d *Device) LogicalBytes() int64 { return d.logicalBytes }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Metrics returns a snapshot of the accumulated metrics. The fault and
// retirement counters are computed fresh from the fault state and the
// per-element FTL stats.
func (d *Device) Metrics() Metrics {
	m := d.met
	if d.flt != nil {
		for e := range d.flt.seq {
			m.FaultsInjected += d.flt.injected[e]
			m.FaultRetries += d.flt.retried[e]
		}
	}
	for _, el := range d.elems {
		s := el.Stats()
		m.RetiredBlocks += s.RetiredBlocks
		m.RemappedPages += s.RemappedPages
	}
	return m
}

// QueueDepth reports the number of requests waiting for dispatch.
func (d *Device) QueueDepth() int { return d.q.Len() }

// Elements exposes the per-element FTLs for inspection.
func (d *Device) Elements() []ftl.Backend { return d.elems }

// GCStats aggregates cleaning statistics across the gang.
func (d *Device) GCStats() GCStats {
	var g GCStats
	for _, el := range d.elems {
		s := el.Stats()
		g.HostPageReads += s.HostReads
		g.HostPageWrites += s.HostWrites
		g.PagesMoved += s.PagesMoved
		g.Cleans += s.Cleans
		g.GCErases += s.GCErases
		g.Migrations += s.Migrations
		g.CleanTime += s.CleanTime
		g.FreesSeen += s.FreesSeen
		g.FreesApplied += s.FreesApplied
		g.RetiredBlocks += s.RetiredBlocks
		g.RemappedPages += s.RemappedPages
	}
	return g
}

// WriteAmplification reports media page writes (stripe rewrites plus GC
// relocation) divided by the pages the host actually sent: the §3.4
// amplification factor.
func (d *Device) WriteAmplification() float64 {
	if d.met.BytesWritten == 0 {
		return 0
	}
	g := d.GCStats()
	hostPages := float64(d.met.BytesWritten) / float64(d.cfg.Geom.PageSize)
	return float64(g.HostPageWrites+g.PagesMoved) / hostPages
}

// reqChunkLen is how many request records one pool growth allocates.
const reqChunkLen = 256

// takeReq pops a pooled request (or takes a fresh one from the current
// chunk) and resets it; callers fill in Op, Arrive and dev, and onDone
// if any. The reset goes field by field: the record keeps its queue
// node, whose id must survive reuse, and its pointer words are left to
// putReq, so a reused record costs no bulk pointer write.
func (d *Device) takeReq() *request {
	r := d.freeReqs.Get()
	if r == nil {
		if len(d.reqChunk) == 0 {
			d.reqChunk = make([]request, reqChunkLen)
		}
		r, d.reqChunk = &d.reqChunk[0], d.reqChunk[1:]
		return r
	}
	r.Start, r.Done, r.remaining, r.internal = 0, 0, 0, false
	return r
}

// putReq recycles a completed request, dropping its callback and error
// references for the collector.
func (d *Device) putReq(r *request) {
	r.onDone, r.Err = nil, nil
	d.freeReqs.Put(r)
}

// Submit enqueues an operation at the current simulated time. onDone, if
// non-nil, receives the response time and the request's error (wear-out,
// an injected element death; nil on success) at completion. Frees are
// metadata-only (zero service time) but still flow through the dispatch
// queue so they order behind earlier writes to the same elements.
func (d *Device) Submit(op trace.Op, onDone func(resp sim.Time, err error)) error {
	if err := op.Validate(); err != nil {
		return err
	}
	if op.End() > d.logicalBytes {
		return fmt.Errorf("ssd: request [%d, +%d) beyond capacity %d", op.Offset, op.Size, d.logicalBytes)
	}
	now := d.eng.Now()
	req := d.takeReq()
	req.Op = op
	req.Arrive = now
	req.onDone = onDone
	req.dev = d
	d.met.Requests++
	// Write-back buffer: absorb the write at RAM speed and let an
	// internal request do the media work. A full buffer bypasses.
	if d.cfg.WriteBufferBytes > 0 && op.Kind == trace.Write {
		if d.bufOccupancy+op.Size <= d.cfg.WriteBufferBytes {
			d.bufOccupancy += op.Size
			d.met.BufferedWrites++
			if op.Priority {
				d.outstandingPri++ // complete() balances this
			}
			// The drain request does the media work without priority (the
			// host has already been acknowledged).
			drain := d.takeReq()
			drain.Op = op
			drain.Op.Priority = false
			drain.Arrive = now
			drain.internal = true
			drain.dev = d
			d.enqueue(drain)
			// The host sees the buffer-insert latency only.
			req.Start = req.Arrive
			d.eng.Call(d.cfg.CtrlOverhead, completeEvent, req)
			d.drv.Pump()
			return nil
		}
		d.met.BufferBypass++
	}
	d.enqueue(req)
	d.drv.Pump()
	return nil
}

// enqueue adds a request to the dispatch queue, carrying the op's tenant
// class and byte cost for the fair-share layer (ignored — and the push
// byte-identical to the legacy one — unless tenant weights are set).
func (d *Device) enqueue(req *request) {
	if req.Op.Priority {
		d.outstandingPri++
	}
	d.q.Push(&req.qn, req, d.elemsFor(req.Op), req.Op.Tenant)
}

// ---- internal machinery ----
//
// The dispatch loop itself lives in sched.Driver (shared with the other
// media models); the device contributes its cleaning passes as the
// driver's hooks and its media execution as serve.

// mandatoryClean is the driver's pre-dispatch hook: below the critical
// watermark always; below the low watermark too when the device is
// priority-agnostic ("cleaning starts at the low threshold irrespective
// of the outstanding requests").
func (d *Device) mandatoryClean(now sim.Time) bool {
	return d.cleanPass(now, d.mustClean)
}

// opportunisticClean is the driver's post-dispatch hook, installed only
// on a priority-aware device with a low watermark: clean at the low
// watermark when no priority request is outstanding.
func (d *Device) opportunisticClean(now sim.Time) bool {
	return d.cleanPass(now, d.wantClean)
}

// cleanPass starts a cleaning pass on every idle, live element of the
// cleaning set that passes should, in ascending element order. A pass
// changes only its own element's membership, and each set word is
// copied before its bits are visited, so the walk sees every element
// that was a member when it began.
func (d *Device) cleanPass(now sim.Time, should func(e int) bool) bool {
	progress := false
	for w, word := range d.cleanSet {
		for word != 0 {
			e := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if d.q.Busy(e) > now || d.faultDead(e) {
				continue
			}
			if should(e) && d.startClean(e) {
				progress = true
			}
		}
	}
	return progress
}

func (d *Device) mustClean(e int) bool {
	el := d.elems[e]
	f := el.FreeFraction()
	critical := d.cfg.GCCritical > 0 && f < d.cfg.GCCritical
	low := !d.cfg.PriorityAware && d.cfg.GCLow > 0 && f < d.cfg.GCLow
	return (critical || low) && el.CanClean()
}

func (d *Device) wantClean(e int) bool {
	if d.outstandingPri != 0 {
		return false
	}
	el := d.elems[e]
	return el.FreeFraction() < d.cfg.GCLow && el.CanClean()
}

func (d *Device) startClean(e int) bool {
	dur, err := d.elems[e].CleanOnce()
	d.syncCleanSet(e)
	if err != nil {
		return false
	}
	d.met.BackgroundCleans++
	d.q.SetBusy(e, d.eng.Now()+dur)
	d.drv.PumpAfter(dur)
	return true
}

// syncCleanSet recomputes element e's cleaning-set membership from its
// FTL state: below the low watermark (the critical one sits at or under
// it) with a block worth reclaiming.
func (d *Device) syncCleanSet(e int) {
	el := d.elems[e]
	bit := uint64(1) << (e & 63)
	if d.cfg.GCLow > 0 && el.FreeFraction() < d.cfg.GCLow && el.CanClean() {
		d.cleanSet[e>>6] |= bit
	} else {
		d.cleanSet[e>>6] &^= bit
	}
}

// resyncCleanSet recomputes the whole cleaning set, at construction and
// wherever a request may have changed any element's FTL state.
func (d *Device) resyncCleanSet() {
	for e := range d.elems {
		d.syncCleanSet(e)
	}
}

// partDoneEvent is the pooled completion callback for one part (an
// element's media work or the host link) of a request: the last part to
// finish completes the request, and every finish frees capacity, so the
// dispatch loop pumps either way.
func partDoneEvent(a any) {
	req := a.(*request)
	d := req.dev
	req.remaining--
	if req.remaining == 0 {
		d.complete(req)
	}
	d.drv.Pump()
}

// partsDoneEvent is the pooled completion callback for an instant at
// which two or more elements finish a request's media work. It stands
// for that many partDoneEvents fired back to back: nothing changes
// between them but the count, so only the first of their pumps can
// dispatch anything. It therefore pumps once before completing the
// request, if this is its last instant, and once after.
func partsDoneEvent(a any) {
	req := a.(*request)
	d := req.dev
	req.remaining--
	if req.remaining == 0 {
		d.drv.Pump()
		d.complete(req)
	}
	d.drv.Pump()
}

// completeEvent is the pooled callback for completions with no media
// part, e.g. the host-visible acknowledgement of a buffered write.
func completeEvent(a any) {
	req := a.(*request)
	req.dev.complete(req)
}

// serve starts media service for a dispatched request: it executes the
// request against the FTLs, marks the elements of its runs busy, models
// the host link, and schedules the completion events — all through the
// engine's pooled event path, so dispatching allocates nothing.
//
// Elements that finish at the same instant share one completion event.
// The events of one serve take consecutive engine sequence numbers, so
// no other event can fire between the parts of one instant, and one
// partsDoneEvent replays exactly what their separate events did.
//
// serve reports a change to the driver (sched.Driver) where the
// cleaning hooks could find new work on an idle element: after a free
// or a failed request, which may have changed any element's FTL state,
// and when the request completes on the spot. A write changes only the
// elements it makes busy, which the hooks skip.
func (d *Device) serve(req *request, now sim.Time) bool {
	req.Start = now
	runs := d.exec(req)
	// A failed request may have stopped anywhere, and a free did no
	// media work: resync every element.
	changed := req.Err != nil || req.Op.Kind == trace.Free
	if changed {
		d.resyncCleanSet()
	}
	// Reads change no mapping state.
	write := !changed && req.Op.Kind == trace.Write
	req.remaining = 0
	// Mark the busy elements and gather their durations.
	parts := d.durScratch[:0]
	for i := range runs {
		r := &runs[i]
		if r.dur == 0 {
			continue
		}
		if write {
			d.syncCleanSet(r.elem)
		}
		d.q.SetBusy(r.elem, now+r.dur+d.cfg.CtrlOverhead)
		parts = append(parts, r.dur)
	}
	// The host link moves the request's data serially (but overlapped
	// with flash work via DMA): it is one more completion constraint.
	if d.cfg.InterfaceMBps > 0 {
		linkTime := sim.Time(float64(req.Op.Size) / (d.cfg.InterfaceMBps * 1e6) * 1e9)
		start := now
		if d.linkBusy > start {
			start = d.linkBusy
		}
		d.linkBusy = start + linkTime
		req.remaining++
		d.eng.Call(d.linkBusy-now, partDoneEvent, req)
	}
	// One event per distinct duration: usually every busy element takes
	// the same time, and the sort leaves a single run.
	slices.Sort(parts)
	for i := 0; i < len(parts); {
		j := i + 1
		for j < len(parts) && parts[j] == parts[i] {
			j++
		}
		ev := partDoneEvent
		if j-i > 1 {
			ev = partsDoneEvent
		}
		req.remaining++
		d.eng.Call(parts[i]+d.cfg.CtrlOverhead, ev, req)
		i = j
	}
	if req.remaining == 0 {
		d.complete(req)
		return true
	}
	return changed
}

func (d *Device) addClassResp(req *request, ms float64) {
	if req.Op.Priority {
		d.met.PriResp.Add(ms)
	} else {
		d.met.BgResp.Add(ms)
	}
}

func (d *Device) complete(req *request) {
	req.Done = d.eng.Now()
	if req.internal {
		// A buffered write finished its media work: release the buffer
		// space; the host already saw its completion.
		d.bufOccupancy -= req.Op.Size
		d.putReq(req)
		return
	}
	if req.Op.Priority {
		d.outstandingPri--
	}
	resp := req.Done - req.Arrive
	if req.Err != nil {
		d.met.Completed++
		d.met.Errors++
	} else {
		ms := resp.Millis()
		d.met.Record(req.Op, ms)
		if req.Op.Kind != trace.Free {
			d.addClassResp(req, ms)
		}
	}
	if req.onDone != nil {
		req.onDone(resp, req.Err)
	}
	d.putReq(req)
}
