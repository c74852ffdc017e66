package core

import (
	"ossd/internal/hdd"
	"ossd/internal/mems"
	"ossd/internal/raid"
	"ossd/internal/sim"
	"ossd/internal/trace"
)

// RAID wraps the RAID-5 array model as a core.Device (Table 1's RAID
// column). The array has no TRIM: a free completes as a metadata no-op
// (still counted in Snapshot.Frees).
type RAID struct {
	Raw *raid.Array
	driveConfig
}

// Submit implements Device.
func (r *RAID) Submit(op trace.Op, onDone func(sim.Time, error)) error {
	return r.Raw.Submit(op, respond[*raid.Request](onDone))
}

// Drive implements Device.
func (r *RAID) Drive(st trace.Stream) error { return drive(r, st, r.MaxPending) }

// Engine implements Device.
func (r *RAID) Engine() *sim.Engine { return r.Raw.Engine() }

// LogicalBytes implements Device.
func (r *RAID) LogicalBytes() int64 { return r.Raw.LogicalBytes() }

// QueueDepth implements Device.
func (r *RAID) QueueDepth() int { return r.Raw.QueueDepth() }

// Metrics implements Device.
func (r *RAID) Metrics() Snapshot { return hostSnapshot(r.Raw.Metrics().Host) }

// MEMS wraps the MEMS-storage model as a core.Device (Table 1's MEMS
// column). MEMS media writes in place: a free completes as a metadata
// no-op (still counted in Snapshot.Frees).
type MEMS struct {
	Raw *mems.Device
	driveConfig
}

// Submit implements Device.
func (m *MEMS) Submit(op trace.Op, onDone func(sim.Time, error)) error {
	return m.Raw.Submit(op, respond[*mems.Request](onDone))
}

// Drive implements Device.
func (m *MEMS) Drive(st trace.Stream) error { return drive(m, st, m.MaxPending) }

// Engine implements Device.
func (m *MEMS) Engine() *sim.Engine { return m.Raw.Engine() }

// LogicalBytes implements Device.
func (m *MEMS) LogicalBytes() int64 { return m.Raw.LogicalBytes() }

// QueueDepth implements Device.
func (m *MEMS) QueueDepth() int { return m.Raw.QueueDepth() }

// Metrics implements Device.
func (m *MEMS) Metrics() Snapshot { return hostSnapshot(m.Raw.Metrics().Host) }

// DefaultRAID is the Table 1 array: five Barracuda-class spindles,
// 64 KiB stripe units.
func DefaultRAID() raid.Config {
	return raid.Config{Disks: 5, Disk: hdd.Barracuda7200(), StripeUnitBytes: 64 << 10}
}

// DefaultMEMS is the Table 1 MEMS device (Schlosser & Ganger's G2).
func DefaultMEMS() mems.Config { return mems.G2() }

// Compile-time interface checks.
var (
	_ Device = (*RAID)(nil)
	_ Device = (*MEMS)(nil)
)
