// Package hdd models a 7200 RPM hard disk for the paper's Table 2
// baseline: a seek-time curve, rotational position tracking, zoned
// recording (outer tracks transfer faster), and a write-back cache that
// drains in CLOOK (elevator) order — the mechanism behind the Barracuda's
// random-write bandwidth exceeding its random-read bandwidth.
package hdd

import (
	"fmt"
	"math"
	"sort"

	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// Config describes the disk.
type Config struct {
	// CapacityBytes is the formatted capacity.
	CapacityBytes int64
	// Cylinders is the number of seek positions.
	Cylinders int
	// Zones is the number of recording zones; zone 0 is outermost and
	// fastest.
	Zones int
	// RPM is the spindle speed.
	RPM int
	// MaxTransferMBps is the outer-zone media rate in MB/s; the inner
	// zone runs at roughly 55% of it, matching typical 3.5" drives.
	MaxTransferMBps float64
	// TrackToTrack, FullStroke are seek-curve anchors.
	TrackToTrack, FullStroke sim.Time
	// CacheBytes is the write-back cache size (0 disables write caching).
	CacheBytes int64
	// CacheLatency is the host-visible latency of a cache-absorbed write.
	CacheLatency sim.Time
}

// Barracuda7200 returns parameters approximating the Seagate Barracuda
// 7200.11 used in the paper's Table 2.
func Barracuda7200() Config {
	return Config{
		CapacityBytes:   500e9,
		Cylinders:       150_000,
		Zones:           16,
		RPM:             7200,
		MaxTransferMBps: 87,
		TrackToTrack:    800 * sim.Microsecond,
		FullStroke:      18 * sim.Millisecond,
		CacheBytes:      16 << 20,
		CacheLatency:    100 * sim.Microsecond,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.CapacityBytes <= 0 || c.Cylinders <= 0 || c.RPM <= 0 || c.MaxTransferMBps <= 0 {
		return fmt.Errorf("hdd: invalid config %+v", *c)
	}
	if c.Zones <= 0 {
		c.Zones = 1
	}
	return nil
}

// Metrics accumulates disk measurements.
type Metrics struct {
	stats.Host
	CacheHits int64
	Seeks     int64
}

// cacheEntry is one dirty range in the write-back cache.
type cacheEntry struct {
	off, size int64
}

// Disk is the simulated drive. Like ssd.Device it is driven entirely by a
// sim.Engine and is single-threaded.
type Disk struct {
	cfg Config
	eng *sim.Engine

	revTime   sim.Time
	zoneRate  []float64
	zoneStart []int64 // starting byte of each zone
	zoneCyls  int

	headCyl int
	lastEnd int64 // end offset of the previous media access (for sequential detection)
	// q holds media accesses awaiting the (single) actuator in FCFS
	// order; drv is the shared dispatch loop, with the write-cache drain
	// as its post hook.
	q         *sched.Queue[request]
	drv       *sched.Driver[request]
	cache     []cacheEntry // sorted by offset
	cacheUsed int64
	waitWr    []*request // writes blocked on cache space
	// draining carries in-flight cache flushes to their pooled
	// completion events, in start order. Drains are serialized by the
	// busy actuator, but at the exact tick one ends an earlier-scheduled
	// arrival can pump the driver and start the next flush before the
	// first drainDoneEvent runs — so this is a (tiny) FIFO, not a single
	// slot. Steady state reuses the slice's capacity.
	draining []cacheEntry
	// freeReqs pools completed requests, so steady-state submission
	// allocates nothing.
	freeReqs sched.Pool[request]

	met Metrics
}

// request is one host request in flight on the disk.
type request struct {
	Op     trace.Op
	Arrive sim.Time
	onDone func(resp sim.Time, err error)
	// disk lets the pooled engine callbacks reach the model without a
	// closure per event.
	disk *Disk
	// qn is the request's dispatch-queue record while it waits; pooled
	// reuse keeps its queue id.
	qn sched.Node[request]
}

// reqCost is a request's dispatch cost for the fair-share scheduler.
func reqCost(r *request) int64 { return r.Op.Size }

// New builds a disk on the engine.
func New(eng *sim.Engine, cfg Config) (*Disk, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Disk{cfg: cfg, eng: eng}
	// One parallel element — the actuator — dispatched FCFS through the
	// same indexed queue the SSD gang uses.
	d.q = sched.NewQueue(sched.FCFS, 1, reqCost)
	d.drv = sched.NewDriver(eng, d.q, d.serve)
	d.drv.SetHooks(nil, d.drain)
	d.revTime = sim.Time(60e9 / float64(cfg.RPM))
	d.zoneCyls = cfg.Cylinders / cfg.Zones
	// Zone media rates fall linearly from max (outer) to 55% (inner).
	d.zoneRate = make([]float64, cfg.Zones)
	total := 0.0
	for z := 0; z < cfg.Zones; z++ {
		frac := 1 - 0.45*float64(z)/float64(max(cfg.Zones-1, 1))
		d.zoneRate[z] = cfg.MaxTransferMBps * 1e6 * frac
		total += frac
	}
	// Bytes per zone proportional to its rate (same cylinders per zone,
	// density ∝ rate).
	d.zoneStart = make([]int64, cfg.Zones+1)
	var acc float64
	for z := 0; z < cfg.Zones; z++ {
		d.zoneStart[z] = int64(acc / total * float64(cfg.CapacityBytes))
		acc += 1 - 0.45*float64(z)/float64(max(cfg.Zones-1, 1))
	}
	d.zoneStart[cfg.Zones] = cfg.CapacityBytes
	return d, nil
}

// Engine returns the driving engine.
func (d *Disk) Engine() *sim.Engine { return d.eng }

// LogicalBytes reports the capacity.
func (d *Disk) LogicalBytes() int64 { return d.cfg.CapacityBytes }

// Metrics returns a snapshot.
func (d *Disk) Metrics() Metrics { return d.met }

// HostMetrics returns the host-visible part of Metrics.
func (d *Disk) HostMetrics() stats.Host { return d.met.Host }

// QueueDepth reports host requests waiting for the actuator: queued
// media accesses plus writes blocked on cache space.
func (d *Disk) QueueDepth() int { return d.q.Len() + len(d.waitWr) }

// zoneOf maps a byte offset to its zone.
func (d *Disk) zoneOf(off int64) int {
	z := sort.Search(d.cfg.Zones, func(i int) bool { return d.zoneStart[i+1] > off })
	if z >= d.cfg.Zones {
		z = d.cfg.Zones - 1
	}
	return z
}

// cylOf maps a byte offset in zone z (zoneOf(off)) to a cylinder.
func (d *Disk) cylOf(off int64, z int) int {
	zBytes := d.zoneStart[z+1] - d.zoneStart[z]
	within := float64(off-d.zoneStart[z]) / float64(zBytes)
	return z*d.zoneCyls + int(within*float64(d.zoneCyls))
}

// seekTime models the seek curve through the two anchor points: a
// sqrt-dominated short-seek region and a linear long-seek region.
func (d *Disk) seekTime(fromCyl, toCyl int) sim.Time {
	dist := fromCyl - toCyl
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	frac := float64(dist) / float64(d.cfg.Cylinders)
	t := float64(d.cfg.TrackToTrack) +
		float64(0.25*float64(d.cfg.FullStroke)*math.Sqrt(frac)) +
		float64(0.70*float64(d.cfg.FullStroke)*frac)
	return sim.Time(t)
}

// rotTime returns the rotational delay to reach the angular position of
// the target offset, in zone z, given the current time.
func (d *Disk) rotTime(off int64, z int, at sim.Time) sim.Time {
	// Angular position of the target sector: proportional to its byte
	// position within its (approximate) track. The head's angle is taken
	// in integer nanoseconds, which equals the float remainder exactly
	// while at < 2^53 ns.
	trackBytes := d.zoneRate[z] * d.revTime.Seconds()
	target := math.Mod(float64(off), trackBytes) / trackBytes
	head := float64(at%d.revTime) / float64(d.revTime)
	delta := target - head
	if delta < 0 {
		delta++
	}
	return sim.Time(delta * float64(d.revTime))
}

// xferTime is the media transfer time for size bytes at zone z's rate.
func (d *Disk) xferTime(z int, size int64) sim.Time {
	return sim.Time(float64(size) / d.zoneRate[z] * 1e9)
}

// serviceTime computes one media access: sequential continuation skips
// the mechanical delays entirely. The offset's zone is looked up once
// and shared by the cylinder, rotation and transfer models.
func (d *Disk) serviceTime(off, size int64) sim.Time {
	z := d.zoneOf(off)
	if off == d.lastEnd {
		end := off + size
		d.lastEnd = end
		d.headCyl = d.cylOf(end, d.zoneOf(end))
		return d.xferTime(z, size)
	}
	cyl := d.cylOf(off, z)
	seek := d.seekTime(d.headCyl, cyl)
	d.met.Seeks++
	rot := d.rotTime(off, z, d.eng.Now()+seek)
	d.headCyl = cyl
	d.lastEnd = off + size
	return seek + rot + d.xferTime(z, size)
}

// Submit enqueues an operation at the current simulated time; onDone
// (optional) receives the response time and a nil error at completion
// (the disk never fails a request). Frees are ignored by disks (no TRIM
// on this model) but complete successfully.
func (d *Disk) Submit(op trace.Op, onDone func(resp sim.Time, err error)) error {
	if err := op.Validate(); err != nil {
		return err
	}
	if op.End() > d.cfg.CapacityBytes {
		return fmt.Errorf("hdd: request [%d, +%d) beyond capacity", op.Offset, op.Size)
	}
	req := d.freeReqs.Get()
	if req == nil {
		req = &request{disk: d}
	}
	req.Op, req.Arrive, req.onDone = op, d.eng.Now(), onDone
	switch op.Kind {
	case trace.Free:
		d.finish(req)
	case trace.Read:
		if d.cacheCovers(op.Offset, op.Size) {
			d.met.CacheHits++
			d.eng.Call(d.cfg.CacheLatency, finishEvent, req)
			break
		}
		d.q.Push(&req.qn, req, actuator, op.Tenant)
		d.drv.Pump()
	case trace.Write:
		if d.cfg.CacheBytes == 0 {
			// Write-through: treat like a read-path media access.
			d.q.Push(&req.qn, req, actuator, op.Tenant)
			d.drv.Pump()
			break
		}
		if d.cacheUsed+op.Size <= d.cfg.CacheBytes {
			d.cacheInsert(op.Offset, op.Size)
			d.eng.Call(d.cfg.CacheLatency, finishEvent, req)
			d.drv.Pump()
		} else {
			d.waitWr = append(d.waitWr, req)
			d.drv.Pump()
		}
	}
	return nil
}

// actuator is the element set of every disk access: the one arm.
var actuator = []int{0}

// finishEvent is the pooled engine callback completing a request with no
// further media work (cache hits and cache-absorbed writes).
func finishEvent(a any) {
	req := a.(*request)
	req.disk.finish(req)
}

// servedEvent is the pooled engine callback for a finished media access:
// complete the request and pump the dispatch loop.
func servedEvent(a any) {
	req := a.(*request)
	d := req.disk // finish pools req
	d.finish(req)
	d.drv.Pump()
}

// drainDoneEvent is the pooled engine callback for a finished cache
// flush; arg is the *Disk since drain victims are cache ranges, not
// requests. Completion events fire in start order (flushes never
// overlap), so the oldest in-flight entry is always the one finishing.
func drainDoneEvent(a any) {
	d := a.(*Disk)
	e := d.draining[0]
	d.draining = d.draining[:copy(d.draining, d.draining[1:])]
	d.drained(e)
	d.drv.Pump()
}

// finish completes a request and pools it: the record dies after
// onDone, which may already have submitted the next request.
func (d *Disk) finish(req *request) {
	resp := d.eng.Now() - req.Arrive
	d.met.Record(req.Op, resp.Millis())
	if req.onDone != nil {
		req.onDone(resp, nil)
	}
	req.onDone = nil
	d.freeReqs.Put(req)
}

// serve starts one queued media access (the driver dispatches reads and
// write-through writes ahead of the drain hook, preserving read
// priority over background cache flushes). An access of zero duration
// leaves the actuator idle with its head moved, so it reports a change.
func (d *Disk) serve(req *request, now sim.Time) bool {
	dur := d.serviceTime(req.Op.Offset, req.Op.Size)
	d.q.SetBusy(0, now+dur)
	d.eng.Call(dur, servedEvent, req)
	return dur == 0
}

// drain is the driver's post-dispatch hook: when the actuator is idle
// and dirty cache entries exist, flush the CLOOK victim.
func (d *Disk) drain(now sim.Time) bool {
	if !d.q.Idle(0, now) || len(d.cache) == 0 {
		return false
	}
	e := d.nextDrain()
	dur := d.serviceTime(e.off, e.size)
	d.q.SetBusy(0, now+dur)
	d.draining = append(d.draining, e)
	d.eng.Call(dur, drainDoneEvent, d)
	return true
}

// cacheCovers reports whether a read range is entirely dirty in cache.
func (d *Disk) cacheCovers(off, size int64) bool {
	i := sort.Search(len(d.cache), func(i int) bool { return d.cache[i].off+d.cache[i].size > off })
	return i < len(d.cache) && d.cache[i].off <= off && off+size <= d.cache[i].off+d.cache[i].size
}

// cacheInsert adds a dirty range, kept sorted by offset. Overlaps merge.
func (d *Disk) cacheInsert(off, size int64) {
	d.cacheUsed += size
	i := sort.Search(len(d.cache), func(i int) bool { return d.cache[i].off >= off })
	d.cache = append(d.cache, cacheEntry{})
	copy(d.cache[i+1:], d.cache[i:])
	d.cache[i] = cacheEntry{off: off, size: size}
}

// nextDrain picks the CLOOK victim: the first dirty entry at or beyond
// the head's cylinder, wrapping to the lowest offset.
func (d *Disk) nextDrain() cacheEntry {
	headOff := d.lastEnd
	i := sort.Search(len(d.cache), func(i int) bool { return d.cache[i].off >= headOff })
	if i == len(d.cache) {
		i = 0
	}
	return d.cache[i]
}

// drained removes a flushed entry and admits waiting writes.
func (d *Disk) drained(e cacheEntry) {
	for i := range d.cache {
		if d.cache[i] == e {
			d.cache = append(d.cache[:i], d.cache[i+1:]...)
			break
		}
	}
	d.cacheUsed -= e.size
	for len(d.waitWr) > 0 {
		req := d.waitWr[0]
		if d.cacheUsed+req.Op.Size > d.cfg.CacheBytes {
			break
		}
		// Shift down in place, as draining does: advancing the slice
		// window would leave the next Submit's append no capacity. Nil
		// the vacated tail slot so it does not pin a request.
		n := copy(d.waitWr, d.waitWr[1:])
		d.waitWr[n] = nil
		d.waitWr = d.waitWr[:n]
		d.cacheInsert(req.Op.Offset, req.Op.Size)
		d.finish(req)
	}
}
