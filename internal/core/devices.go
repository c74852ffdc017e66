package core

import (
	"ossd/internal/fault"
	"ossd/internal/hdd"
	"ossd/internal/mems"
	"ossd/internal/raid"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// medium is what Media needs of a model: the Device methods it forwards
// unchanged, plus the host accounting its metrics embed.
type medium interface {
	Submit(op trace.Op, onDone func(resp sim.Time, err error)) error
	Engine() *sim.Engine
	LogicalBytes() int64
	QueueDepth() int
	HostMetrics() stats.Host
}

// Media wraps a model without block management — the disk, MEMS and
// RAID columns of Table 1 — as a core.Device, keeping the model
// reachable via Raw. None of them has TRIM: a free completes as a
// metadata no-op (still counted in Snapshot.Frees). A fault plan is a
// field of the wrapper, not a layer around it, so a faulted disk is
// still a *HDD.
type Media[M medium] struct {
	Raw        M
	maxPending int          // Drive's admission bound; 0 is unbounded
	flt        *mediaFaults // nil unless the fault plan injects
}

// newMedia wraps raw with Drive's admission bound and, when the plan
// injects, the per-op fault injector. The plan must be validated.
func newMedia[M medium](raw M, maxPending int, plan *fault.Plan) *Media[M] {
	m := &Media[M]{Raw: raw, maxPending: maxPending}
	if plan.Injects() {
		m.flt = &mediaFaults{raw: raw, plan: plan}
	}
	return m
}

// The three media wrappers, named for type assertions such as
// dev.(*core.HDD).Raw.
type (
	HDD  = Media[*hdd.Disk]
	MEMS = Media[*mems.Device]
	RAID = Media[*raid.Array]
)

// Submit implements Device. Reads and writes pass through the fault
// injector when there is one; frees never do.
func (m *Media[M]) Submit(op trace.Op, onDone func(sim.Time, error)) error {
	if m.flt != nil && op.Kind != trace.Free {
		return m.flt.submit(op, onDone)
	}
	return m.Raw.Submit(op, onDone)
}

// Drive implements Device.
func (m *Media[M]) Drive(st trace.Stream) error { return drive(m, st, m.maxPending) }

// Engine implements Device.
func (m *Media[M]) Engine() *sim.Engine { return m.Raw.Engine() }

// LogicalBytes implements Device.
func (m *Media[M]) LogicalBytes() int64 { return m.Raw.LogicalBytes() }

// QueueDepth implements Device.
func (m *Media[M]) QueueDepth() int { return m.Raw.QueueDepth() }

// Metrics implements Device: the medium's snapshot, reconciled with the
// fault injector's counters when there is one.
func (m *Media[M]) Metrics() Snapshot {
	s := hostSnapshot(m.Raw.HostMetrics())
	if m.flt != nil {
		m.flt.reconcile(&s)
	}
	return s
}

// DefaultRAID is the Table 1 array: five Barracuda-class spindles,
// 64 KiB stripe units.
func DefaultRAID() raid.Config {
	return raid.Config{Disks: 5, Disk: hdd.Barracuda7200(), StripeUnitBytes: 64 << 10}
}

// DefaultMEMS is the Table 1 MEMS device (Schlosser & Ganger's G2).
func DefaultMEMS() mems.Config { return mems.G2() }

// Compile-time interface checks.
var (
	_ Device = (*HDD)(nil)
	_ Device = (*MEMS)(nil)
	_ Device = (*RAID)(nil)
)
