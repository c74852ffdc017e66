// Package mems models a MEMS-based storage device in the style of
// Griffin et al. (OSDI 2000) and Schlosser & Ganger (FAST 2004): a probe
// array over a spring-mounted media sled that seeks in X/Y and streams
// while sweeping. The paper's Table 1 includes this device class because
// it is the counter-example: MEMS storage *satisfies* the unwritten
// contract (sequential beats random, distance costs time, the address
// space is uniform, no amplification, no wear, no background activity),
// so the block interface fits it — unlike SSDs.
package mems

import (
	"fmt"
	"math"

	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// Config describes the device.
type Config struct {
	// CapacityBytes is the media capacity.
	CapacityBytes int64
	// StreamMBps is the sustained streaming rate while sweeping.
	StreamMBps float64
	// Settle is the post-seek oscillation settling time.
	Settle sim.Time
	// FullStroke is the X-displacement time across the whole sled.
	FullStroke sim.Time
	// Tracks is the number of sweep columns (defines the X coordinate of
	// an LBA).
	Tracks int
}

// G2 returns the second-generation device parameters used by Schlosser &
// Ganger: ~3.5 GB, ~76 MB/s streaming, sub-millisecond seeks.
func G2() Config {
	return Config{
		CapacityBytes: 3584 << 20,
		StreamMBps:    76,
		Settle:        200 * sim.Microsecond,
		FullStroke:    800 * sim.Microsecond,
		Tracks:        10000,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.CapacityBytes <= 0 || c.StreamMBps <= 0 || c.Tracks <= 0 {
		return fmt.Errorf("mems: invalid config %+v", *c)
	}
	return nil
}

// Metrics accumulates measurements.
type Metrics struct {
	stats.Host
	Seeks int64
}

// request is one host request in flight on the device.
type request struct {
	Op     trace.Op
	Arrive sim.Time
	onDone func(resp sim.Time, err error)
	// dev lets the pooled engine callback reach the model without a
	// closure per event.
	dev *Device
	// qn is the request's dispatch-queue record while it waits; pooled
	// reuse keeps its queue id.
	qn sched.Node[request]
}

// reqCost is a request's dispatch cost for the fair-share scheduler.
func reqCost(r *request) int64 { return r.Op.Size }

// Device is the MEMS store. Single actuator: one request at a time,
// FCFS, dispatched through the shared indexed queue.
type Device struct {
	cfg Config
	eng *sim.Engine

	track   int   // sled X position
	lastEnd int64 // for sequential detection
	q       *sched.Queue[request]
	drv     *sched.Driver[request]
	// freeReqs pools completed requests, so steady-state submission
	// allocates nothing.
	freeReqs sched.Pool[request]
	met      Metrics
}

// sled is the element set of every access: the one media sled.
var sled = []int{0}

// New builds a device.
func New(eng *sim.Engine, cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{cfg: cfg, eng: eng}
	d.q = sched.NewQueue(sched.FCFS, 1, reqCost)
	d.drv = sched.NewDriver(eng, d.q, d.serve)
	return d, nil
}

// Engine returns the driving engine.
func (d *Device) Engine() *sim.Engine { return d.eng }

// LogicalBytes reports the capacity.
func (d *Device) LogicalBytes() int64 { return d.cfg.CapacityBytes }

// Metrics returns a snapshot.
func (d *Device) Metrics() Metrics { return d.met }

// HostMetrics returns the host-visible part of Metrics.
func (d *Device) HostMetrics() stats.Host { return d.met.Host }

// trackOf maps an offset to its sweep column.
func (d *Device) trackOf(off int64) int {
	return int(float64(off) / float64(d.cfg.CapacityBytes) * float64(d.cfg.Tracks))
}

// seekTime is the sled displacement cost: square-root-of-distance spring
// dynamics plus a constant settle, per Griffin et al.
func (d *Device) seekTime(from, to int) sim.Time {
	if from == to {
		return 0
	}
	frac := math.Abs(float64(from-to)) / float64(d.cfg.Tracks)
	d.met.Seeks++
	return d.cfg.Settle + sim.Time(float64(d.cfg.FullStroke)*math.Sqrt(frac))
}

// serviceTime is one access: seek (skipped for sequential continuation)
// plus streaming transfer.
func (d *Device) serviceTime(op trace.Op) sim.Time {
	xfer := sim.Time(float64(op.Size) / (d.cfg.StreamMBps * 1e6) * 1e9)
	if op.Offset == d.lastEnd {
		d.lastEnd = op.End()
		d.track = d.trackOf(op.End())
		return xfer
	}
	seek := d.seekTime(d.track, d.trackOf(op.Offset))
	d.track = d.trackOf(op.End())
	d.lastEnd = op.End()
	return seek + xfer
}

// Submit enqueues a request; the single actuator serves FIFO. onDone
// (optional) receives the response time and a nil error at completion
// (MEMS media never fails a request).
func (d *Device) Submit(op trace.Op, onDone func(resp sim.Time, err error)) error {
	if err := op.Validate(); err != nil {
		return err
	}
	if op.End() > d.cfg.CapacityBytes {
		return fmt.Errorf("mems: request [%d, +%d) beyond capacity", op.Offset, op.Size)
	}
	req := d.freeReqs.Get()
	if req == nil {
		req = &request{dev: d}
	}
	req.Op, req.Arrive, req.onDone = op, d.eng.Now(), onDone
	if op.Kind == trace.Free {
		d.finish(req)
		return nil
	}
	d.q.Push(&req.qn, req, sled, op.Tenant)
	d.drv.Pump()
	return nil
}

// QueueDepth reports requests waiting for the sled.
func (d *Device) QueueDepth() int { return d.q.Len() }

// servedEvent is the pooled engine callback for a finished sled access:
// complete the request and pump the dispatch loop.
func servedEvent(a any) {
	req := a.(*request)
	d := req.dev // finish pools req
	d.finish(req)
	d.drv.Pump()
}

// serve starts one access on the sled; an access of zero duration
// leaves the sled idle, so it reports a change.
func (d *Device) serve(req *request, now sim.Time) bool {
	dur := d.serviceTime(req.Op)
	d.q.SetBusy(0, now+dur)
	d.eng.Call(dur, servedEvent, req)
	return dur == 0
}

// finish completes a request and pools it: the record dies after
// onDone, which may already have submitted the next request.
func (d *Device) finish(req *request) {
	resp := d.eng.Now() - req.Arrive
	d.met.Record(req.Op, resp.Millis())
	if req.onDone != nil {
		req.onDone(resp, nil)
	}
	req.onDone = nil
	d.freeReqs.Put(req)
}
