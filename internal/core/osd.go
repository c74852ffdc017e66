package core

import (
	"fmt"

	"ossd/internal/osd"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/trace"
)

// OSD is the paper's §3.7 proposal as a core.Device: an object store
// fronting the flash device, with the device's address space exposed
// through a single pre-reserved volume object. Block reads and writes
// travel the object path — stripe-aligned extents allocated inside the
// device — and Free notifications reach the FTL as the §3.5 informed-
// cleaning signal. The store and device stay reachable via Store and Raw
// for object-level use (Create/Delete/attributes).
type OSD struct {
	Raw        *ssd.Device
	Store      *osd.Store
	maxPending int // Drive's admission bound; 0 is unbounded
	vol        osd.ObjectID
}

// newOSD builds a flash device on a fresh engine, fronts it with an
// object store, and reserves one volume object spanning the whole
// device. maxPending is Drive's admission bound.
func newOSD(cfg ssd.Config, maxPending int) (*OSD, error) {
	dev, err := ssd.New(sim.NewEngine(), cfg)
	if err != nil {
		return nil, err
	}
	st, err := osd.New(dev)
	if err != nil {
		return nil, err
	}
	// The volume carries no attributes, so block I/O is not
	// priority-tagged.
	vol := st.Create(osd.Attributes{})
	if err := st.Reserve(vol, dev.LogicalBytes()); err != nil {
		return nil, fmt.Errorf("core: reserve %d-byte volume: %w", dev.LogicalBytes(), err)
	}
	return &OSD{Raw: dev, Store: st, maxPending: maxPending, vol: vol}, nil
}

// Submit implements Device: reads, writes, and frees all go through the
// object store's extent mapping, so frees land on exactly the device
// pages backing the volume bytes (TRIM through the object interface).
func (o *OSD) Submit(op trace.Op, onDone func(sim.Time, error)) error {
	if err := op.Validate(); err != nil {
		return err
	}
	if op.End() > o.LogicalBytes() {
		return fmt.Errorf("core: osd request [%d, +%d) beyond %d-byte volume", op.Offset, op.Size, o.LogicalBytes())
	}
	switch op.Kind {
	case trace.Read:
		return o.Store.ReadAs(o.vol, op.Offset, op.Size, op.Tenant, onDone)
	case trace.Free:
		return o.Store.FreeRange(o.vol, op.Offset, op.Size, onDone)
	default:
		return o.Store.WriteAs(o.vol, op.Offset, op.Size, op.Tenant, onDone)
	}
}

// Drive implements Device.
func (o *OSD) Drive(st trace.Stream) error { return drive(o, st, o.maxPending) }

// Engine implements Device.
func (o *OSD) Engine() *sim.Engine { return o.Raw.Engine() }

// LogicalBytes implements Device: the volume spans the raw device.
func (o *OSD) LogicalBytes() int64 { return o.Raw.LogicalBytes() }

// QueueDepth implements Device.
func (o *OSD) QueueDepth() int { return o.Raw.QueueDepth() }

// Metrics implements Device.
func (o *OSD) Metrics() Snapshot { return ssdSnapshot(o.Raw.Metrics()) }

var _ Device = (*OSD)(nil)
