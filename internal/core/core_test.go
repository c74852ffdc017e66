package core

import (
	"testing"

	"ossd/internal/flash"
	"ossd/internal/hdd"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/trace"
)

func smallSSD(t *testing.T) *SSD {
	t.Helper()
	d, err := newSSD(ssd.Config{
		Elements:      2,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 8, BlocksPerPackage: 32},
		Overprovision: 0.15,
		Layout:        ssd.Interleaved,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSSDWrapperRoundTrip(t *testing.T) {
	d := smallSSD(t)
	var resp sim.Time
	var gotErr error
	if err := d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096},
		func(r sim.Time, err error) { resp, gotErr = r, err }); err != nil {
		t.Fatal(err)
	}
	d.Engine().Run()
	if gotErr != nil || resp <= 0 {
		t.Fatalf("submit callback: %v %v", resp, gotErr)
	}
	m := d.Metrics()
	if m.Completed != 1 || m.BytesWritten != 4096 {
		t.Fatalf("metrics: %d %d", m.Completed, m.BytesWritten)
	}
	if m.MeanWriteMs <= 0 {
		t.Fatal("no write response recorded")
	}
}

func TestHDDWrapperRoundTrip(t *testing.T) {
	d, err := Build(Profile{Kind: KindHDD, HDD: hdd.Barracuda7200()})
	if err != nil {
		t.Fatal(err)
	}
	var resp sim.Time
	if err := d.Submit(trace.Op{Kind: trace.Read, Offset: 0, Size: 4096},
		func(r sim.Time, err error) { resp = r }); err != nil {
		t.Fatal(err)
	}
	d.Engine().Run()
	if resp <= 0 {
		t.Fatal("read did not complete")
	}
	if d.LogicalBytes() != hdd.Barracuda7200().CapacityBytes {
		t.Fatal("capacity mismatch")
	}
}

func TestRAIDAndMEMSWrappers(t *testing.T) {
	r, err := Build(Profile{Kind: KindRAID, RAID: DefaultRAID()})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Drive(trace.FromSlice([]trace.Op{{Kind: trace.Write, Offset: 0, Size: 4096}})); err != nil {
		t.Fatal(err)
	}
	if rm := r.Metrics(); rm.Completed != 1 || rm.BytesWritten != 4096 {
		t.Fatalf("raid metrics: %d %d", rm.Completed, rm.BytesWritten)
	}
	m, err := Build(Profile{Kind: KindMEMS, MEMS: DefaultMEMS()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Drive(trace.FromSlice([]trace.Op{{Kind: trace.Read, Offset: 0, Size: 4096}})); err != nil {
		t.Fatal(err)
	}
	if mm := m.Metrics(); mm.Completed != 1 || mm.BytesRead != 4096 {
		t.Fatalf("mems metrics: %d %d", mm.Completed, mm.BytesRead)
	}
	if m.Metrics().MeanReadMs <= 0 {
		t.Fatal("mems read mean missing")
	}
}

func TestPreconditionFull(t *testing.T) {
	d := smallSSD(t)
	if err := Precondition(d, 64<<10); err != nil {
		t.Fatal(err)
	}
	written := d.Metrics().BytesWritten
	if written != d.LogicalBytes() {
		t.Fatalf("precondition wrote %d of %d", written, d.LogicalBytes())
	}
	// Every page mapped.
	for _, el := range d.Raw.Elements() {
		for lpn := 0; lpn < el.LogicalPages(); lpn++ {
			if !el.Mapped(lpn) {
				t.Fatalf("page %d unmapped after full precondition", lpn)
			}
		}
	}
}

func TestMeasureBandwidthPatterns(t *testing.T) {
	d := smallSSD(t)
	if err := Precondition(d, 64<<10); err != nil {
		t.Fatal(err)
	}
	seq, err := MeasureBandwidth(d, BWOptions{
		Kind: trace.Read, Pattern: Sequential, ReqBytes: 8192, TotalBytes: 1 << 20, Depth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := MeasureBandwidth(d, BWOptions{
		Kind: trace.Read, Pattern: Random, ReqBytes: 4096, TotalBytes: 1 << 20, Depth: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if seq <= 0 || rnd <= 0 {
		t.Fatalf("bandwidths: %v %v", seq, rnd)
	}
}

func TestMeasureBandwidthWrapsSequential(t *testing.T) {
	// TotalBytes larger than the device must wrap, not error.
	d := smallSSD(t)
	if err := Precondition(d, 64<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureBandwidth(d, BWOptions{
		Kind: trace.Write, Pattern: Sequential, ReqBytes: 64 << 10,
		TotalBytes: 2 * d.LogicalBytes(), Depth: 1,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestProfilesComplete(t *testing.T) {
	names := map[string]bool{}
	for _, p := range ExtendedProfiles() {
		if p.Description == "" {
			t.Fatalf("profile missing description: %+v", p)
		}
		names[p.Name] = true
	}
	for _, want := range []string{"HDD", "S1slc", "S2slc", "S3slc", "S4slc_sim", "S5mlc"} {
		if !names[want] {
			t.Fatalf("missing Table 2 profile %s", want)
		}
	}
}

func TestDefaultRAIDAndMEMSConfigs(t *testing.T) {
	rc := DefaultRAID()
	if rc.Disks < 3 {
		t.Fatal("default RAID too small")
	}
	mc := DefaultMEMS()
	if err := mc.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Every wrapper must report tail-latency percentiles alongside means,
// and the percentiles must be ordered and consistent with the mean's
// existence.
func TestSnapshotPercentiles(t *testing.T) {
	d := smallSSD(t)
	if err := Precondition(d, 64<<10); err != nil {
		t.Fatal(err)
	}
	var off int64
	if err := ClosedLoop(d, 2, func(i int) (trace.Op, bool) {
		if i >= 200 {
			return trace.Op{}, false
		}
		kind := trace.Read
		if i%2 == 0 {
			kind = trace.Write
		}
		op := trace.Op{Kind: kind, Offset: off % d.LogicalBytes(), Size: 4096}
		off += 4096
		return op, true
	}); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.P50ReadMs <= 0 || m.P50WriteMs <= 0 {
		t.Fatalf("missing percentiles: %+v", m)
	}
	if m.P50ReadMs > m.P95ReadMs || m.P95ReadMs > m.P99ReadMs {
		t.Fatalf("read percentiles out of order: %+v", m)
	}
	if m.P50WriteMs > m.P95WriteMs || m.P95WriteMs > m.P99WriteMs {
		t.Fatalf("write percentiles out of order: %+v", m)
	}
}

// ProfileNames must enumerate exactly the registry, sorted.
func TestProfileNames(t *testing.T) {
	names := ProfileNames()
	if len(names) != len(ExtendedProfiles()) {
		t.Fatalf("ProfileNames has %d entries, registry has %d", len(names), len(ExtendedProfiles()))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %q >= %q", names[i-1], names[i])
		}
	}
	for _, name := range names {
		if _, err := ProfileByName(name); err != nil {
			t.Fatal(err)
		}
	}
}
