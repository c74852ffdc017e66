// Package raid models a RAID-5 array over the hdd disk model, for the
// RAID column of the paper's Table 1. Two properties matter there: small
// writes are amplified by the parity read-modify-write (term 4 fails,
// "write ampliﬁcation ... happens on RAID arrays that need to update
// parity blocks"), and striping decouples logical distance from seek
// distance (term 2 fails — two far-apart LBNs usually live on different
// spindles whose heads stay put).
package raid

import (
	"fmt"

	"ossd/internal/hdd"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// Config describes the array.
type Config struct {
	// Disks is the number of spindles (data + rotating parity). Minimum 3.
	Disks int
	// Disk is the per-spindle configuration.
	Disk hdd.Config
	// StripeUnitBytes is the per-disk chunk size (default 64 KiB).
	StripeUnitBytes int64
}

// Validate checks and fills defaults.
func (c *Config) Validate() error {
	if c.Disks < 3 {
		return fmt.Errorf("raid: RAID-5 needs at least 3 disks, got %d", c.Disks)
	}
	if c.StripeUnitBytes == 0 {
		c.StripeUnitBytes = 64 << 10
	}
	if c.StripeUnitBytes <= 0 {
		return fmt.Errorf("raid: bad stripe unit %d", c.StripeUnitBytes)
	}
	return c.Disk.Validate()
}

// Metrics accumulates array-level measurements.
type Metrics struct {
	stats.Host
	// DiskBytesRead/Written count spindle-level traffic, including parity
	// and read-modify-write; DiskBytesWritten/BytesWritten is the array's
	// write amplification.
	DiskBytesRead, DiskBytesWritten int64
}

// request is one host request in flight: left counts the spindle
// operations it still waits for. Completed requests are pooled.
type request struct {
	Op     trace.Op
	Arrive sim.Time
	onDone func(resp sim.Time, err error)
	array  *Array
	left   int
	// subDoneFn is subDone bound to this record once, when it is first
	// allocated, so pooled reuse creates no method value per request.
	subDoneFn func(sim.Time, error)
}

// subDone is the completion callback of every spindle operation of the
// request; the last one completes the host request.
func (r *request) subDone(sim.Time, error) {
	r.left--
	if r.left == 0 {
		r.array.finish(r)
	}
}

// Array is the RAID-5 device.
type Array struct {
	cfg   Config
	eng   *sim.Engine
	disks []*hdd.Disk
	met   Metrics
	// freeReqs pools completed requests, so steady-state submission
	// allocates nothing.
	freeReqs sched.Pool[request]
	// subs is the plan scratch: Submit plans into it and hands every
	// sub-op to its disk before returning, and a disk completes reads and
	// writes only from engine events, so no plan outlives its Submit.
	subs []subOp
}

// New builds the array on one engine.
func New(eng *sim.Engine, cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Array{cfg: cfg, eng: eng}
	for i := 0; i < cfg.Disks; i++ {
		d, err := hdd.New(eng, cfg.Disk)
		if err != nil {
			return nil, err
		}
		a.disks = append(a.disks, d)
	}
	return a, nil
}

// Engine returns the driving engine.
func (a *Array) Engine() *sim.Engine { return a.eng }

// LogicalBytes is the data capacity: (N-1)/N of the raw space.
func (a *Array) LogicalBytes() int64 {
	perDisk := a.cfg.Disk.CapacityBytes / a.cfg.StripeUnitBytes * a.cfg.StripeUnitBytes
	return perDisk * int64(a.cfg.Disks-1)
}

// Metrics returns a snapshot.
func (a *Array) Metrics() Metrics { return a.met }

// HostMetrics returns the host-visible part of Metrics.
func (a *Array) HostMetrics() stats.Host { return a.met.Host }

// QueueDepth reports spindle-level operations waiting for dispatch,
// summed over the array (the array itself holds no queue: decomposed
// sub-operations queue on their disks).
func (a *Array) QueueDepth() int {
	depth := 0
	for _, d := range a.disks {
		depth += d.QueueDepth()
	}
	return depth
}

// locate maps a logical stripe unit to (disk, per-disk offset) with
// left-symmetric rotating parity.
func (a *Array) locate(unit int64) (disk int, diskOff int64, parityDisk int) {
	n := int64(a.cfg.Disks)
	row := unit / (n - 1)
	col := unit % (n - 1)
	parityDisk = int(row % n)
	d := int(col)
	if d >= parityDisk {
		d++
	}
	return d, row * a.cfg.StripeUnitBytes, parityDisk
}

// subOp is one spindle-level operation of a decomposed request.
type subOp struct {
	disk int
	op   trace.Op
}

// plan decomposes a host request into spindle operations. Reads touch
// only the covering data units; writes add the parity read-modify-write
// (read old data + old parity, write new data + new parity) per touched
// unit, or skip the reads when a whole row is overwritten.
func (a *Array) plan(op trace.Op) []subOp {
	u := a.cfg.StripeUnitBytes
	n := int64(a.cfg.Disks)
	end := op.End()
	subs := a.subs[:0]
	// Group touched units by row so full-row writes skip the RMW reads.
	firstUnit := op.Offset / u
	lastUnit := (end - 1) / u
	for row := firstUnit / (n - 1); row <= lastUnit/(n-1); row++ {
		rowStart := row * (n - 1) * u
		rowEnd := rowStart + (n-1)*u
		lo, hi := op.Offset, end
		if lo < rowStart {
			lo = rowStart
		}
		if hi > rowEnd {
			hi = rowEnd
		}
		if lo >= hi {
			continue
		}
		fullRow := lo == rowStart && hi == rowEnd
		diskOff := row * u
		_, _, parity := a.locate(row * (n - 1))
		for unit := lo / u; unit*u < hi; unit++ {
			d, dOff, _ := a.locate(unit)
			uLo, uHi := lo, hi
			if s := unit * u; uLo < s {
				uLo = s
			}
			if e := (unit + 1) * u; uHi > e {
				uHi = e
			}
			inner := uLo - unit*u
			size := uHi - uLo
			switch op.Kind {
			case trace.Read:
				subs = append(subs, subOp{d, trace.Op{Kind: trace.Read, Offset: dOff + inner, Size: size}})
			case trace.Write:
				if !fullRow {
					// Parity RMW: read old data and old parity, then
					// write both back.
					subs = append(subs, subOp{d, trace.Op{Kind: trace.Read, Offset: dOff + inner, Size: size}})
					subs = append(subs, subOp{parity, trace.Op{Kind: trace.Read, Offset: diskOff + inner, Size: size}})
					subs = append(subs, subOp{parity, trace.Op{Kind: trace.Write, Offset: diskOff + inner, Size: size}})
				}
				subs = append(subs, subOp{d, trace.Op{Kind: trace.Write, Offset: dOff + inner, Size: size}})
			}
		}
		if op.Kind == trace.Write && fullRow {
			// One parity write covers the whole row unit.
			subs = append(subs, subOp{parity, trace.Op{Kind: trace.Write, Offset: diskOff, Size: u}})
		}
	}
	a.subs = subs
	return subs
}

// Submit enqueues a host request; onDone (optional) receives the
// response time and a nil error when every spindle operation completes
// (the array never fails a request). Frees are no-ops (disks have no
// TRIM here).
func (a *Array) Submit(op trace.Op, onDone func(resp sim.Time, err error)) error {
	if err := op.Validate(); err != nil {
		return err
	}
	if op.End() > a.LogicalBytes() {
		return fmt.Errorf("raid: request [%d, +%d) beyond capacity", op.Offset, op.Size)
	}
	req := a.freeReqs.Get()
	if req == nil {
		req = &request{array: a}
		req.subDoneFn = req.subDone
	}
	req.Op, req.Arrive, req.onDone = op, a.eng.Now(), onDone
	if op.Kind == trace.Free {
		a.finish(req)
		return nil
	}
	subs := a.plan(op)
	if len(subs) == 0 {
		a.finish(req)
		return nil
	}
	// Spindle sub-ops inherit the host op's tenant so the disks'
	// per-tenant queues and metrics attribute the derived traffic
	// (including parity read-modify-write) to the tenant that caused it.
	for i := range subs {
		subs[i].op.Tenant = op.Tenant
	}
	req.left = len(subs)
	for _, s := range subs {
		switch s.op.Kind {
		case trace.Read:
			a.met.DiskBytesRead += s.op.Size
		case trace.Write:
			a.met.DiskBytesWritten += s.op.Size
		}
		if err := a.disks[s.disk].Submit(s.op, req.subDoneFn); err != nil {
			return err
		}
	}
	return nil
}

// finish completes a request and pools it: the record dies after
// onDone, which may already have submitted the next request.
func (a *Array) finish(req *request) {
	resp := a.eng.Now() - req.Arrive
	a.met.Record(req.Op, resp.Millis())
	if req.onDone != nil {
		req.onDone(resp, nil)
	}
	req.onDone = nil
	a.freeReqs.Put(req)
}

// WriteAmplification reports spindle write bytes per host write byte.
func (a *Array) WriteAmplification() float64 {
	if a.met.BytesWritten == 0 {
		return 0
	}
	return float64(a.met.DiskBytesWritten) / float64(a.met.BytesWritten)
}
