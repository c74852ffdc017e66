package core

import (
	"fmt"
	"strings"
	"testing"

	"ossd/internal/fault"
	"ossd/internal/flash"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/trace"
)

// smallSSDConfig is a tiny flash geometry shared by the SSD and OSD
// conformance devices.
func smallSSDConfig() ssd.Config {
	return ssd.Config{
		Elements:      2,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 8, BlocksPerPackage: 32},
		Overprovision: 0.15,
		Layout:        ssd.Interleaved,
		Scheduler:     sched.SWTF,
		Informed:      true,
	}
}

// TestDeviceConformance runs the same read/write/free/replay/closed-loop
// checks against every Device implementation, the fault injector included. Any new medium added to
// the facade must join this table.
func TestDeviceConformance(t *testing.T) {
	devices := []struct {
		name string
		mk   func() (Device, error)
	}{
		{"SSD", func() (Device, error) { return Build(Profile{Kind: KindSSD, SSD: smallSSDConfig()}) }},
		{"HDD", func() (Device, error) {
			p, err := ProfileByName("HDD")
			if err != nil {
				return nil, err
			}
			return p.NewDevice()
		}},
		{"MEMS", func() (Device, error) { return Build(Profile{Kind: KindMEMS, MEMS: DefaultMEMS()}) }},
		{"RAID", func() (Device, error) { return Build(Profile{Kind: KindRAID, RAID: DefaultRAID()}) }},
		{"OSD", func() (Device, error) { return Build(Profile{Kind: KindOSD, SSD: smallSSDConfig()}) }},
		{"Fault", func() (Device, error) {
			// A death that never fires: the injector sits on every op's
			// path without changing any outcome.
			plan := &fault.Plan{Deaths: []fault.Death{{Element: 0, AfterOps: 1 << 40}}}
			d, err := Open("hdd", WithFault(plan))
			if err != nil {
				return nil, err
			}
			if d.(*HDD).flt == nil {
				return nil, fmt.Errorf("the plan attached no injector")
			}
			return d, nil
		}},
	}
	for _, tc := range devices {
		t.Run(tc.name, func(t *testing.T) {
			// Submit: a write then a read complete with positive response
			// times and no error.
			d, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			if d.LogicalBytes() <= 0 {
				t.Fatal("no capacity")
			}
			var wResp, rResp sim.Time
			var wErr, rErr error
			if err := d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 8192},
				func(r sim.Time, err error) { wResp, wErr = r, err }); err != nil {
				t.Fatal(err)
			}
			d.Engine().Run()
			if wErr != nil || wResp <= 0 {
				t.Fatalf("write: resp %v err %v", wResp, wErr)
			}
			if err := d.Submit(trace.Op{Kind: trace.Read, Offset: 0, Size: 8192},
				func(r sim.Time, err error) { rResp, rErr = r, err }); err != nil {
				t.Fatal(err)
			}
			d.Engine().Run()
			if rErr != nil || rResp <= 0 {
				t.Fatalf("read: resp %v err %v", rResp, rErr)
			}

			// Metrics: the snapshot reflects both transfers.
			m := d.Metrics()
			if m.Completed < 2 {
				t.Fatalf("completed %d, want >= 2", m.Completed)
			}
			if m.BytesWritten != 8192 || m.BytesRead != 8192 {
				t.Fatalf("bytes: read %d written %d, want 8192 each", m.BytesRead, m.BytesWritten)
			}
			if m.MeanWriteMs <= 0 || m.MeanReadMs <= 0 {
				t.Fatalf("means: read %v write %v", m.MeanReadMs, m.MeanWriteMs)
			}
			if m.Errors != 0 {
				t.Fatalf("errors: %d", m.Errors)
			}

			// Free: every device accepts the notification, completes it,
			// and counts it — Snapshot.Frees is uniform across media,
			// whether or not the substrate acts on the free.
			before := d.Metrics().Completed
			if err := d.Submit(trace.Op{Kind: trace.Free, Offset: 0, Size: 4096}, nil); err != nil {
				t.Fatal(err)
			}
			d.Engine().Run()
			if d.Metrics().Completed <= before {
				t.Fatal("free never completed")
			}
			if got := d.Metrics().Frees; got != 1 {
				t.Fatalf("frees = %d, want 1 (uniform counting)", got)
			}

			// Drive: a timestamped trace (including a free), pulled one op
			// at a time, drains fully.
			d2b, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			ops := []trace.Op{
				{At: 0, Kind: trace.Write, Offset: 0, Size: 4096},
				{At: 1 * sim.Millisecond, Kind: trace.Write, Offset: 4096, Size: 4096},
				{At: 2 * sim.Millisecond, Kind: trace.Read, Offset: 0, Size: 4096},
				{At: 3 * sim.Millisecond, Kind: trace.Free, Offset: 4096, Size: 4096},
			}
			if err := d2b.Drive(trace.FromSlice(ops)); err != nil {
				t.Fatal(err)
			}
			if m := d2b.Metrics(); m.BytesWritten != 8192 || m.BytesRead != 4096 || m.Frees != 1 {
				t.Fatalf("drive moved read %d written %d frees %d", m.BytesRead, m.BytesWritten, m.Frees)
			}
			if d2b.Engine().Pending() != 0 {
				t.Fatalf("drive left %d events pending", d2b.Engine().Pending())
			}

			// A same-instant run submitted with one shared callback fires
			// it once per op.
			d2d, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			fired := 0
			batch := []trace.Op{
				{Kind: trace.Write, Offset: 0, Size: 4096},
				{Kind: trace.Write, Offset: 4096, Size: 4096},
				{Kind: trace.Read, Offset: 0, Size: 4096},
			}
			onDone := func(r sim.Time, err error) {
				if err == nil && r > 0 {
					fired++
				}
			}
			for _, op := range batch {
				if err := d2d.Submit(op, onDone); err != nil {
					t.Fatal(err)
				}
			}
			d2d.Engine().Run()
			if fired != len(batch) {
				t.Fatalf("batch callbacks fired %d, want %d", fired, len(batch))
			}
			if m := d2d.Metrics(); m.BytesWritten != 8192 || m.BytesRead != 4096 {
				t.Fatalf("batch moved read %d written %d", m.BytesRead, m.BytesWritten)
			}

			// Drive surfaces a decoder error from the stream.
			d2c, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			if err := d2c.Drive(trace.NewDecoder(strings.NewReader("0 W 0 4096\nbroken\n"))); err == nil {
				t.Fatal("drive swallowed stream error")
			}

			// ClosedLoop: exactly n generated ops complete.
			d3, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			const n = 16
			i := 0
			if err := ClosedLoop(d3, 4, func(int) (trace.Op, bool) {
				if i >= n {
					return trace.Op{}, false
				}
				op := trace.Op{Kind: trace.Write, Offset: int64(i) * 4096, Size: 4096}
				i++
				return op, true
			}); err != nil {
				t.Fatal(err)
			}
			if m := d3.Metrics(); m.BytesWritten != n*4096 {
				t.Fatalf("closed loop wrote %d, want %d", m.BytesWritten, n*4096)
			}

			// Out-of-range submissions are rejected up front.
			if err := d.Submit(trace.Op{Kind: trace.Read, Offset: d.LogicalBytes(), Size: 4096}, nil); err == nil {
				t.Fatal("accepted read beyond capacity")
			}
			// A range whose end overflows int64 is out of range too: its
			// End is negative, so only Validate can catch it.
			huge := trace.Op{Kind: trace.Write, Offset: 6917529027641081856, Size: 6917529027641081856}
			if err := d.Submit(huge, nil); err == nil {
				t.Fatal("accepted a write whose end overflows")
			}
			d4, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			if err := d4.Drive(trace.FromSlice([]trace.Op{huge})); err == nil {
				t.Fatal("drove a write whose end overflows")
			}
		})
	}
}

// TestOSDDeviceObjectPath checks the OSD-specific plumbing: block ops
// land in the store's volume object and frees reach the informed FTL.
func TestOSDDeviceObjectPath(t *testing.T) {
	d, err := newOSD(smallSSDConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 32 << 10}, nil); err != nil {
		t.Fatal(err)
	}
	d.Engine().Run()
	st := d.Store.Stats()
	if st.BytesWritten != 32<<10 {
		t.Fatalf("store saw %d bytes, want %d", st.BytesWritten, 32<<10)
	}
	size, err := d.Store.Size(d.vol)
	if err != nil {
		t.Fatal(err)
	}
	if size != d.LogicalBytes() {
		t.Fatalf("volume spans %d, want %d", size, d.LogicalBytes())
	}
	if err := d.Submit(trace.Op{Kind: trace.Free, Offset: 0, Size: 16 << 10}, nil); err != nil {
		t.Fatal(err)
	}
	d.Engine().Run()
	if m := d.Metrics(); m.Frees != 1 {
		t.Fatalf("frees %d, want 1", m.Frees)
	}
}
