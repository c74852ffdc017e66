package ssd

// Sharded parallel dataplane: one large gang simulated across CPU cores,
// byte-identical to the single-engine replay.
//
// The partition follows the element groups: shard k owns elements
// [k*gs, (k+1)*gs) and runs them on a private sim.Engine with a private
// sched.Queue and metrics, under conservative parallel discrete-event
// simulation (sim.ShardGroup). The open-loop arrival stream provides the
// lookahead: the router clamps each arrival's timestamp exactly as the
// single-engine drive loop would (a running max over the stream), posts
// it to the owning shard's inbox, and runs a parallel window up to the
// next arrival's clamped time whenever an inbox fills — no future event
// can land inside a window that its horizon did not already announce.
//
// Exactness rests on three properties:
//
//   - Requests touching one element group interact only through that
//     group's busy horizons and FTL state, all shard-private; a shard's
//     event order is (time, seq) exactly as in the single engine.
//   - Same-instant arrival-vs-completion interleavings commute: an
//     element is "idle" whenever its horizon is <= now, whether or not
//     the completion event at now has run, completions mutate no queue
//     or FTL state, and the dispatch pump runs to a fixpoint either way.
//   - Response-time histograms use Welford accumulation, which is
//     order-sensitive, so shards log (done, start, ms) samples instead
//     of folding their own; window barriers replay the merged log in
//     global completion order into the gang-level histograms.
//
// A request spanning multiple element groups would couple the shards, so
// it triggers the one-way merge transition: run every shard to the
// spanning arrival's time, move pending events and queued requests onto
// the gang's own engine and queue (in global arrival order), copy the
// busy horizons, and continue the rest of the stream on the literal
// single-engine code path — exact by construction.

import (
	"fmt"
	"sort"

	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/trace"
)

// shardInboxCap bounds each shard's arrival inbox; a full inbox forces a
// parallel window, so it is also the router's batch size.
const shardInboxCap = 1024

// gang is the sharded dataplane attached to a Device by EnableSharding.
type gang struct {
	group     *sim.ShardGroup
	subs      []*Device
	groupSize int

	// Arrival-node pool: nodes posted since the last window are in
	// flight; a window consumes them all, after which the pool rewinds.
	nodes    []*arrivalNode
	nodeUsed int

	// merged scratch for the per-window sample sort.
	scratch []completionSample
}

// arrivalNode carries one posted arrival into a shard: the operation,
// its global sequence number, and the shard sub-device to submit to.
type arrivalNode struct {
	dev  *Device
	op   trace.Op
	gseq uint64
}

// shardArriveEvent is the pooled arrival callback delivered inside a
// shard's window. Submission cannot fail: the router admitted the op
// against the same capacity before posting.
func shardArriveEvent(a any) {
	n := a.(*arrivalNode)
	n.dev.nextGseq = n.gseq
	_ = n.dev.Submit(n.op, nil)
}

// ShardableConfig reports whether a device built from cfg supports an
// n-way sharded dataplane. The constraints are exactly the couplings
// that would make element groups interact outside their own state:
// FullStripe writes touch every element, FCFS blocks head-of-line across
// the whole gang, the host link and write buffer are device-global
// serial resources, heterogeneous layouts split pages unevenly, and
// priority-aware cleaning consults the gang-wide outstanding count.
func ShardableConfig(cfg Config, n int) error {
	if n < 2 {
		return fmt.Errorf("ssd: sharding needs at least 2 shards, got %d", n)
	}
	if cfg.Elements%n != 0 {
		return fmt.Errorf("ssd: %d elements do not divide into %d shards", cfg.Elements, n)
	}
	if cfg.Layout != Interleaved {
		return fmt.Errorf("ssd: sharding requires the Interleaved layout")
	}
	if cfg.Scheduler != sched.SWTF {
		return fmt.Errorf("ssd: sharding requires the SWTF scheduler")
	}
	if cfg.MLCElements != 0 {
		return fmt.Errorf("ssd: sharding requires homogeneous media")
	}
	if cfg.InterfaceMBps != 0 {
		return fmt.Errorf("ssd: sharding is incompatible with a host-link cap")
	}
	if cfg.WriteBufferBytes != 0 {
		return fmt.Errorf("ssd: sharding is incompatible with a write buffer")
	}
	if cfg.PriorityAware {
		return fmt.Errorf("ssd: sharding is incompatible with priority-aware cleaning")
	}
	if len(cfg.TenantWeights) != 0 {
		return fmt.Errorf("ssd: sharding is incompatible with tenant-weighted dispatch")
	}
	return nil
}

// EnableSharding attaches an n-way parallel dataplane to a fresh device.
// Open-loop Drive traffic (core's unbounded Drive) then runs across
// n engines; every other entry point — Submit, core.ClosedLoop, bounded
// Drive — keeps using the device's own engine unchanged. Reports built
// from the device are byte-identical at every shard count.
func (d *Device) EnableSharding(n int) error {
	if err := ShardableConfig(d.cfg, n); err != nil {
		return err
	}
	if d.shard != nil {
		return fmt.Errorf("ssd: sharding already enabled")
	}
	if d.eng.Now() != 0 || d.met.Requests != 0 {
		return fmt.Errorf("ssd: sharding must be enabled before any traffic")
	}
	g := &gang{
		group:     sim.NewShardGroup(n, shardInboxCap),
		groupSize: d.cfg.Elements / n,
	}
	for i := 0; i < n; i++ {
		lo, hi := i*g.groupSize, (i+1)*g.groupSize
		sd, err := newWithBackends(g.group.Engine(i), d.cfg, d.elems, lo, hi)
		if err != nil {
			return err
		}
		sd.recording = true
		// Fault clocks are shared, not copied: element e's sequence
		// numbers advance only on its owning shard, in that shard's
		// dispatch order, which is the single-engine order restricted to
		// the shard — so injections are shard-invariant.
		sd.flt = d.flt
		g.subs = append(g.subs, sd)
	}
	d.shard = g
	return nil
}

// Sharded reports whether the parallel dataplane is attached.
func (d *Device) Sharded() bool { return d.shard != nil }

// Shards reports the shard count (1 when not sharded).
func (d *Device) Shards() int {
	if d.shard == nil {
		return 1
	}
	return d.shard.group.N()
}

// route returns the shard whose element group covers every page of op,
// or -1 when the operation spans groups. O(1): under the homogeneous
// Interleaved layout page l lives on element l mod E, so a run of p
// pages starting at element e0 covers elements [e0, e0+p-1] (spanning
// if it wraps or p >= E).
func (g *gang) route(d *Device, op trace.Op) int {
	ps := int64(d.cfg.Geom.PageSize)
	l0 := op.Offset / ps
	l1 := (op.End() - 1) / ps
	e := int64(d.cfg.Elements)
	npages := l1 - l0 + 1
	if npages >= e {
		return -1
	}
	e0 := l0 % e
	e1 := e0 + npages - 1
	if e1 >= e {
		return -1 // wraps around the gang
	}
	gs := int64(g.groupSize)
	if e0/gs != e1/gs {
		return -1
	}
	return int(e0 / gs)
}

func (g *gang) takeNode() *arrivalNode {
	if g.nodeUsed < len(g.nodes) {
		n := g.nodes[g.nodeUsed]
		g.nodeUsed++
		return n
	}
	n := &arrivalNode{}
	g.nodes = append(g.nodes, n)
	g.nodeUsed++
	return n
}

// window runs one parallel window up to and including horizon h (every
// posted arrival is consumed), then folds the shards' counters and
// replays their completion samples in merged order.
func (d *Device) window(h sim.Time) {
	g := d.shard
	g.group.RunWindow(h)
	g.nodeUsed = 0
	d.flushShardStats()
}

// flushShardStats folds the shards' counter deltas into the gang-level
// metrics and replays their response-time samples in global completion
// order. Windows partition simulated time, so per-window merged order
// concatenates into the global completion order.
func (d *Device) flushShardStats() {
	g := d.shard
	g.scratch = g.scratch[:0]
	for _, sd := range g.subs {
		foldCounters(&d.met, &sd.met)
		g.scratch = append(g.scratch, sd.samples...)
		sd.samples = sd.samples[:0]
	}
	sort.SliceStable(g.scratch, func(i, j int) bool {
		a, b := &g.scratch[i], &g.scratch[j]
		if a.done != b.done {
			return a.done < b.done
		}
		return a.start < b.start
	})
	for i := range g.scratch {
		s := &g.scratch[i]
		switch s.kind {
		case trace.Read:
			d.met.ReadResp.Add(s.ms)
		case trace.Write:
			d.met.WriteResp.Add(s.ms)
		}
		if s.pri {
			d.met.PriResp.Add(s.ms)
		} else {
			d.met.BgResp.Add(s.ms)
		}
		d.met.Tenants.Record(s.tenant, s.kind == trace.Write, s.size, s.ms)
	}
}

// foldCounters moves src's integer counters into dst. The histograms
// travel separately as ordered samples.
func foldCounters(dst, src *Metrics) {
	dst.Requests += src.Requests
	dst.Completed += src.Completed
	dst.BytesRead += src.BytesRead
	dst.BytesWritten += src.BytesWritten
	dst.Frees += src.Frees
	dst.Errors += src.Errors
	dst.BackgroundCleans += src.BackgroundCleans
	dst.BufferedWrites += src.BufferedWrites
	dst.BufferBypass += src.BufferBypass
	*src = Metrics{}
}

// DriveStream replays an open-loop workload stream across the shards.
// It is the sharded analogue of core's unbounded Drive: each arrival is
// clamped to a nondecreasing timeline and submitted with no completion
// callback, and DriveStream returns only after every in-flight request
// has completed, with the device clock at the single-engine final time.
func (d *Device) DriveStream(s trace.Stream) error {
	g := d.shard
	if g == nil {
		return fmt.Errorf("ssd: DriveStream requires sharding")
	}
	// The shards take their element groups over from the gang, whose
	// own traffic may have changed them since the shards last ran.
	for _, sd := range g.subs {
		sd.resyncCleanSet()
	}
	g.group.Start()
	defer g.group.Stop()
	// The clamp seed is the device clock, exactly as the single-engine
	// drive loop clamps arrivals to its engine's now.
	clamped := d.eng.Now()
	var gseq uint64
	for {
		op, ok := s.Next()
		if !ok {
			d.drainShards()
			return trace.Err(s)
		}
		if op.At > clamped {
			clamped = op.At
		}
		if err := d.admit(op); err != nil {
			// Match the single-engine contract: a submit error stops the
			// pull loop but everything in flight still drains.
			d.drainShards()
			return err
		}
		k := g.route(d, op)
		if k < 0 {
			return d.merge(s, op, clamped)
		}
		if g.group.InboxFree(k) == 0 {
			// The next posting is at clamped, so clamped is a valid
			// conservative lookahead horizon.
			d.window(clamped)
		}
		gseq++
		n := g.takeNode()
		n.dev = g.subs[k]
		n.op = op
		n.gseq = gseq
		g.group.Post(k, clamped, shardArriveEvent, n)
	}
}

// drainShards runs the shards dry, folds their stats, and advances the
// device clock to the latest shard clock — the time of the globally last
// event, which is where the single engine's Run() would have stopped.
func (d *Device) drainShards() {
	g := d.shard
	g.group.RunWindow(sim.MaxTime)
	g.nodeUsed = 0
	d.flushShardStats()
	d.resyncCleanSet()
	if t := g.group.MaxNow(); t > d.eng.Now() {
		d.eng.RunUntil(t)
	}
}

// mergedLoop continues a stream on the device's own engine after the
// merge transition, replicating core's unbounded drive loop shape.
type mergedLoop struct {
	d   *Device
	s   trace.Stream
	op  trace.Op
	err error
}

func mergedArriveEvent(a any) {
	dl := a.(*mergedLoop)
	if err := dl.d.Submit(dl.op, nil); err != nil {
		dl.err = err
		return
	}
	op, ok := dl.s.Next()
	if !ok {
		return
	}
	at := op.At
	if now := dl.d.eng.Now(); at < now {
		at = now
	}
	dl.op = op
	dl.d.eng.CallAt(at, mergedArriveEvent, dl)
}

// merge is the one-way transition from parallel windows to single-engine
// execution, taken when op (arriving at time at) spans element groups.
// It reconstructs on the device's own engine exactly the state the
// single engine would hold at time at: pending events in (time, shard,
// scheduling order), queued requests re-pushed in global arrival order,
// and the per-element busy horizons — then replays the rest of the
// stream on the ordinary single-engine path.
func (d *Device) merge(s trace.Stream, op trace.Op, at sim.Time) error {
	g := d.shard
	// Run every shard up to the spanning arrival's time; pending events
	// are strictly later than at.
	d.window(at)
	g.group.Stop()
	d.resyncCleanSet()
	// In-service priority counts move wholesale: the in-flight requests'
	// completions will decrement the gang-level count from now on.
	var queued []*request
	for _, sd := range g.subs {
		d.outstandingPri += sd.outstandingPri
		sd.outstandingPri = 0
		sd.q.Drain(func(_ uint64, req *request) {
			queued = append(queued, req)
		})
	}
	// Busy horizons live in each element's owning shard queue.
	for e := 0; e < d.cfg.Elements; e++ {
		d.q.SetBusy(e, g.subs[e/g.groupSize].q.Busy(e))
	}
	// Re-enqueue in global arrival order; Push re-assigns queue sequence
	// numbers in that order, preserving every SWTF tie-break.
	sort.Slice(queued, func(i, j int) bool { return queued[i].gseq < queued[j].gseq })
	for _, req := range queued {
		req.dev = d
		d.q.Push(&req.qn, req, d.elemsFor(req.Op), req.Op.Tenant)
	}
	g.group.Transfer(d.eng, func(arg any) any {
		switch v := arg.(type) {
		case *request:
			v.dev = d
			return v
		case *sched.Driver[request]:
			return d.drv
		}
		return arg
	})
	// The spanning arrival runs first (pending events are later than
	// at), then the stream continues exactly like core's drive loop.
	dl := &mergedLoop{d: d, s: s, op: op}
	d.eng.CallAt(at, mergedArriveEvent, dl)
	d.eng.Run()
	if dl.err == nil {
		dl.err = trace.Err(s)
	}
	return dl.err
}
