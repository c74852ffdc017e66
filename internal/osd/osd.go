// Package osd implements the paper's proposal (§3.7): an object-based
// storage interface in front of the SSD, so the device — not the file
// system — performs block management. Objects are byte-addressable,
// carry attributes (priority, owning tenant), and are backed by
// stripe-aligned extents allocated inside the device:
//
//   - Allocation granularity is the device's logical page (the full
//     stripe on FullStripe layouts), so object writes are naturally
//     stripe-aligned and avoid read-modify-write (§3.4).
//   - Deleting an object releases its pages to the FTL as free
//     notifications, enabling informed cleaning (§3.5).
//   - Requests against priority objects are tagged so priority-aware
//     cleaning can defer background work (§3.6).
package osd

import (
	"errors"
	"fmt"

	"ossd/internal/fsmodel"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/trace"
)

// ObjectID names an object.
type ObjectID uint64

// Attributes carry per-object hints the device exploits.
type Attributes struct {
	// Priority marks the object's I/O as foreground (§3.6).
	Priority bool
	// Tenant is the owning tenant class (0 = untagged): device I/O issued
	// for this object is tagged with it, so per-tenant accounting and
	// fair-share dispatch see object traffic attributed to its owner. The
	// block-compatible volume front overrides it per op via the *As
	// variants, since one shared volume carries every tenant's I/O.
	Tenant uint8
}

// Errors returned by the store.
var (
	ErrNotFound = errors.New("osd: no such object")
	ErrNoSpace  = errors.New("osd: out of space")
	ErrBadRange = errors.New("osd: invalid range")
)

type object struct {
	id    ObjectID
	attrs Attributes
	size  int64 // logical byte size (highest byte written + 1)
	fsid  fsmodel.FileID
	// extents caches the allocation, in object-logical order; extent i
	// covers object bytes [starts[i], starts[i]+extents[i].Count*unit).
	extents []fsmodel.Extent
	starts  []int64
}

// Stats summarizes store activity.
type Stats struct {
	Objects        int
	Created        int64
	Deleted        int64
	BytesWritten   int64
	BytesRead      int64
	AllocatedBytes int64
	FreedBytes     int64
}

// Store is the object store. Like the device it fronts, it is
// single-threaded and driven by the device's simulation engine.
type Store struct {
	dev   *ssd.Device
	fs    *fsmodel.FS // allocates the device's address space in units
	unit  int64       // allocation unit in bytes (stripe or page)
	objs  map[ObjectID]*object
	next  ObjectID
	stats Stats
	// freeJoins pools completed join records with their range lists, so
	// steady-state I/O allocates nothing.
	freeJoins sched.Pool[pendingRanges]
}

// New builds a store over a device. The allocation unit is the device's
// logical page: the stripe for FullStripe layouts, the flash page for
// Interleaved.
func New(dev *ssd.Device) (*Store, error) {
	cfg := dev.Config()
	unit := int64(cfg.Geom.PageSize)
	if cfg.Layout == ssd.FullStripe {
		unit = cfg.StripeBytes
	}
	fs, err := fsmodel.New(dev.LogicalBytes(), unit)
	if err != nil {
		return nil, err
	}
	return &Store{dev: dev, fs: fs, unit: unit, objs: make(map[ObjectID]*object)}, nil
}

// Device exposes the underlying device.
func (s *Store) Device() *ssd.Device { return s.dev }

// AllocationUnit reports the allocation granularity in bytes.
func (s *Store) AllocationUnit() int64 { return s.unit }

// Stats returns a snapshot.
func (s *Store) Stats() Stats {
	st := s.stats
	st.Objects = len(s.objs)
	return st
}

// Create registers an empty object.
func (s *Store) Create(attrs Attributes) ObjectID {
	s.next++
	id := s.next
	s.objs[id] = &object{id: id, attrs: attrs, fsid: s.fs.Create()}
	s.stats.Created++
	return id
}

// Attributes returns an object's attributes.
func (s *Store) Attributes(id ObjectID) (Attributes, error) {
	o, ok := s.objs[id]
	if !ok {
		return Attributes{}, ErrNotFound
	}
	return o.attrs, nil
}

// Size returns the object's logical size in bytes.
func (s *Store) Size(id ObjectID) (int64, error) {
	o, ok := s.objs[id]
	if !ok {
		return 0, ErrNotFound
	}
	return o.size, nil
}

// List returns all live object IDs (unordered).
func (s *Store) List() []ObjectID {
	out := make([]ObjectID, 0, len(s.objs))
	for id := range s.objs {
		out = append(out, id)
	}
	return out
}

// allocatedBytes returns the object's allocated capacity.
func (o *object) allocatedBytes(unit int64) int64 {
	var n int64
	for _, e := range o.extents {
		n += e.Count
	}
	return n * unit
}

// ensure grows the object's allocation to cover [0, end) bytes.
func (s *Store) ensure(o *object, end int64) error {
	have := o.allocatedBytes(s.unit)
	if end <= have {
		return nil
	}
	need := (end - have + s.unit - 1) / s.unit
	got, err := s.fs.Append(o.fsid, need)
	if err != nil {
		if errors.Is(err, fsmodel.ErrNoSpace) {
			return ErrNoSpace
		}
		return err
	}
	for _, e := range got {
		o.starts = append(o.starts, have)
		o.extents = append(o.extents, e)
		have += e.Count * s.unit
		s.stats.AllocatedBytes += e.Count * s.unit
	}
	return nil
}

// ranges maps an object byte range to device byte ranges, in order,
// reusing out's storage.
func (o *object) ranges(out [][2]int64, unit, off, size int64) ([][2]int64, error) {
	end := off + size
	out = out[:0]
	for i, e := range o.extents {
		eStart := o.starts[i]
		eLen := e.Count * unit
		eEnd := eStart + eLen
		if eEnd <= off || eStart >= end {
			continue
		}
		lo, hi := off, end
		if lo < eStart {
			lo = eStart
		}
		if hi > eEnd {
			hi = eEnd
		}
		devOff := e.Start*unit + (lo - eStart)
		out = append(out, [2]int64{devOff, hi - lo})
	}
	var covered int64
	for _, r := range out {
		covered += r[1]
	}
	if covered != size {
		return nil, fmt.Errorf("%w: [%d, +%d) not fully allocated", ErrBadRange, off, size)
	}
	return out, nil
}

// mapRanges takes a pooled join record and fills its range list with
// the device ranges backing object bytes [off, off+size).
func (s *Store) mapRanges(o *object, off, size int64) (*pendingRanges, error) {
	p := s.freeJoins.Get()
	if p == nil {
		p = &pendingRanges{store: s}
		p.part = p.onPart
	}
	var err error
	p.ranges, err = o.ranges(p.ranges, s.unit, off, size)
	if err != nil {
		s.freeJoins.Put(p)
		return nil, err
	}
	return p, nil
}

// submitRanges issues one device op per range of p and calls done once
// all complete, with the time since the call and the first error.
func (s *Store) submitRanges(kind trace.Kind, p *pendingRanges, pri bool, tenant uint8, done func(resp sim.Time, err error)) {
	if len(p.ranges) == 0 {
		s.freeJoins.Put(p)
		if done != nil {
			done(0, nil)
		}
		return
	}
	p.start, p.left, p.done = s.dev.Engine().Now(), len(p.ranges), done
	// p stays unpooled until its last range completes, and that happens
	// at the earliest inside the last Submit, so the list is stable here.
	for _, r := range p.ranges {
		op := trace.Op{Kind: kind, Offset: r[0], Size: r[1], Priority: pri, Tenant: tenant}
		if err := s.dev.Submit(op, p.part); err != nil {
			p.onPart(0, err)
		}
	}
}

// pendingRanges joins the device completions of one multi-range store
// call into the caller's single completion. The store pools it with its
// range list; it dies after done, as a device request dies after its
// onDone.
type pendingRanges struct {
	store  *Store
	ranges [][2]int64
	start  sim.Time
	left   int
	err    error
	done   func(resp sim.Time, err error)
	// part is onPart bound once, when the record is first allocated: the
	// one callback for every range.
	part func(sim.Time, error)
}

// onPart records one range's completion; the last one fires done and
// pools the record.
func (p *pendingRanges) onPart(_ sim.Time, err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
	p.left--
	if p.left != 0 {
		return
	}
	if p.done != nil {
		p.done(p.store.dev.Engine().Now()-p.start, p.err)
	}
	p.done, p.err = nil, nil
	p.store.freeJoins.Put(p)
}

// Reserve grows an object's allocation and logical size to cover
// [0, size) bytes without issuing device I/O — the OSD analogue of
// truncate/fallocate. A block-compatible volume front uses it to claim
// the device's whole address space up front so reads of not-yet-written
// offsets stay in range.
func (s *Store) Reserve(id ObjectID, size int64) error {
	o, ok := s.objs[id]
	if !ok {
		return ErrNotFound
	}
	if size < 0 {
		return fmt.Errorf("%w: reserve %d bytes", ErrBadRange, size)
	}
	if err := s.ensure(o, size); err != nil {
		return err
	}
	if size > o.size {
		o.size = size
	}
	return nil
}

// Write stores size bytes at object offset off, growing the object as
// needed. done (optional) fires when the device completes all parts,
// with the response time measured from this call and the first device
// error; run the device's engine to make progress.
func (s *Store) Write(id ObjectID, off, size int64, done func(resp sim.Time, err error)) error {
	o, ok := s.objs[id]
	if !ok {
		return ErrNotFound
	}
	return s.WriteAs(id, off, size, o.attrs.Tenant, done)
}

// WriteAs is Write with the device I/O tagged for an explicit tenant
// instead of the object's owner — the block volume front's hook, where
// one shared volume carries every tenant's I/O.
func (s *Store) WriteAs(id ObjectID, off, size int64, tenant uint8, done func(resp sim.Time, err error)) error {
	o, ok := s.objs[id]
	if !ok {
		return ErrNotFound
	}
	if off < 0 || size <= 0 {
		return fmt.Errorf("%w: write [%d, +%d)", ErrBadRange, off, size)
	}
	if err := s.ensure(o, off+size); err != nil {
		return err
	}
	p, err := s.mapRanges(o, off, size)
	if err != nil {
		return err
	}
	if off+size > o.size {
		o.size = off + size
	}
	s.stats.BytesWritten += size
	s.submitRanges(trace.Write, p, o.attrs.Priority, tenant, done)
	return nil
}

// Read fetches size bytes at object offset off; done (optional) fires
// as for Write.
func (s *Store) Read(id ObjectID, off, size int64, done func(resp sim.Time, err error)) error {
	o, ok := s.objs[id]
	if !ok {
		return ErrNotFound
	}
	return s.ReadAs(id, off, size, o.attrs.Tenant, done)
}

// ReadAs is Read with the device I/O tagged for an explicit tenant (see
// WriteAs).
func (s *Store) ReadAs(id ObjectID, off, size int64, tenant uint8, done func(resp sim.Time, err error)) error {
	o, ok := s.objs[id]
	if !ok {
		return ErrNotFound
	}
	if off < 0 || size <= 0 || off+size > o.size {
		return fmt.Errorf("%w: read [%d, +%d) of %d-byte object", ErrBadRange, off, size, o.size)
	}
	p, err := s.mapRanges(o, off, size)
	if err != nil {
		return err
	}
	s.stats.BytesRead += size
	s.submitRanges(trace.Read, p, o.attrs.Priority, tenant, done)
	return nil
}

// FreeRange tells the device a byte range of the object no longer holds
// live data, without deallocating the extents — TRIM within an object.
// The range is translated through the object's extent map, so the
// notifications land on exactly the device pages backing those bytes.
// done (optional) fires as for Write.
func (s *Store) FreeRange(id ObjectID, off, size int64, done func(resp sim.Time, err error)) error {
	o, ok := s.objs[id]
	if !ok {
		return ErrNotFound
	}
	if off < 0 || size <= 0 || off+size > o.size {
		return fmt.Errorf("%w: free [%d, +%d) of %d-byte object", ErrBadRange, off, size, o.size)
	}
	p, err := s.mapRanges(o, off, size)
	if err != nil {
		return err
	}
	s.stats.FreedBytes += size
	s.submitRanges(trace.Free, p, o.attrs.Priority, o.attrs.Tenant, done)
	return nil
}

// Delete removes an object and releases its pages to the device as free
// notifications — the §3.5 informed-cleaning signal.
func (s *Store) Delete(id ObjectID) error {
	o, ok := s.objs[id]
	if !ok {
		return ErrNotFound
	}
	delete(s.objs, id)
	freed, err := s.fs.Delete(o.fsid)
	if err != nil {
		return err
	}
	s.stats.Deleted++
	for _, e := range freed {
		off, size := e.Bytes(s.unit)
		s.stats.FreedBytes += size
		if err := s.dev.Submit(trace.Op{Kind: trace.Free, Offset: off, Size: size}, nil); err != nil {
			return err
		}
	}
	return nil
}
