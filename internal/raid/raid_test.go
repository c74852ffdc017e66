package raid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ossd/internal/hdd"
	"ossd/internal/sim"
	"ossd/internal/trace"
)

func testConfig() Config {
	return Config{Disks: 5, Disk: hdd.Barracuda7200(), StripeUnitBytes: 64 << 10}
}

func newArray(t *testing.T) (*sim.Engine, *Array) {
	t.Helper()
	eng := sim.NewEngine()
	a, err := New(eng, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, a
}

func TestConfigValidate(t *testing.T) {
	c := testConfig()
	c.Disks = 2
	if _, err := New(sim.NewEngine(), c); err == nil {
		t.Error("accepted 2-disk RAID-5")
	}
	c = testConfig()
	c.StripeUnitBytes = -1
	if _, err := New(sim.NewEngine(), c); err == nil {
		t.Error("accepted negative stripe unit")
	}
	c = testConfig()
	c.Disk.CapacityBytes = 0
	if _, err := New(sim.NewEngine(), c); err == nil {
		t.Error("accepted bad disk config")
	}
}

func TestLogicalBytes(t *testing.T) {
	_, a := newArray(t)
	want := a.cfg.Disk.CapacityBytes / a.cfg.StripeUnitBytes * a.cfg.StripeUnitBytes * 4
	if a.LogicalBytes() != want {
		t.Fatalf("LogicalBytes = %d, want %d (4/5 of raw)", a.LogicalBytes(), want)
	}
}

func TestLocateRotatesParity(t *testing.T) {
	_, a := newArray(t)
	n := int64(a.cfg.Disks)
	// Parity disk rotates across rows; data disks skip the parity slot.
	seen := map[int]bool{}
	for row := int64(0); row < n; row++ {
		_, _, parity := a.locate(row * (n - 1))
		seen[parity] = true
		for col := int64(0); col < n-1; col++ {
			d, off, p := a.locate(row*(n-1) + col)
			if d == p {
				t.Fatalf("row %d col %d: data on parity disk", row, col)
			}
			if off != row*a.cfg.StripeUnitBytes {
				t.Fatalf("row %d: disk offset %d", row, off)
			}
			if d < 0 || d >= a.cfg.Disks {
				t.Fatalf("disk %d out of range", d)
			}
		}
	}
	if len(seen) != a.cfg.Disks {
		t.Fatalf("parity visited %d disks, want %d", len(seen), a.cfg.Disks)
	}
}

func TestSmallWriteParityRMW(t *testing.T) {
	eng, a := newArray(t)
	if err := a.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096}, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	m := a.Metrics()
	// Read old data + old parity, write new data + new parity.
	if m.DiskBytesRead != 2*4096 {
		t.Fatalf("disk reads = %d, want %d", m.DiskBytesRead, 2*4096)
	}
	if m.DiskBytesWritten != 2*4096 {
		t.Fatalf("disk writes = %d, want %d", m.DiskBytesWritten, 2*4096)
	}
	if wa := a.WriteAmplification(); wa != 2 {
		t.Fatalf("write amplification = %v, want 2", wa)
	}
}

func TestFullRowWriteSkipsRMW(t *testing.T) {
	eng, a := newArray(t)
	rowBytes := a.cfg.StripeUnitBytes * int64(a.cfg.Disks-1)
	if err := a.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: rowBytes}, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	m := a.Metrics()
	if m.DiskBytesRead != 0 {
		t.Fatalf("full-row write read %d bytes", m.DiskBytesRead)
	}
	// N-1 data units + 1 parity unit.
	if m.DiskBytesWritten != rowBytes+a.cfg.StripeUnitBytes {
		t.Fatalf("disk writes = %d, want %d", m.DiskBytesWritten, rowBytes+a.cfg.StripeUnitBytes)
	}
}

func TestReadTouchesOnlyDataDisks(t *testing.T) {
	eng, a := newArray(t)
	if err := a.Submit(trace.Op{Kind: trace.Read, Offset: 0, Size: 4096}, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	m := a.Metrics()
	if m.DiskBytesRead != 4096 || m.DiskBytesWritten != 0 {
		t.Fatalf("read traffic: %d read, %d written", m.DiskBytesRead, m.DiskBytesWritten)
	}
	if m.BytesRead != 4096 || m.Completed != 1 {
		t.Fatalf("host metrics: %+v", m)
	}
}

func TestStripingSpreadsSequentialLoad(t *testing.T) {
	eng, a := newArray(t)
	// A sequential scan of 8 stripe units must hit multiple disks.
	var done int
	for i := int64(0); i < 8; i++ {
		a.Submit(trace.Op{Kind: trace.Read, Offset: i * a.cfg.StripeUnitBytes, Size: a.cfg.StripeUnitBytes},
			func(sim.Time, error) { done++ })
	}
	eng.Run()
	if done != 8 {
		t.Fatalf("completed %d of 8", done)
	}
	busy := 0
	for _, d := range a.disks {
		if d.Metrics().BytesRead > 0 {
			busy++
		}
	}
	if busy < 4 {
		t.Fatalf("sequential scan used only %d disks", busy)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, a := newArray(t)
	if err := a.Submit(trace.Op{Kind: trace.Read, Offset: -1, Size: 4096}, nil); err == nil {
		t.Error("accepted negative offset")
	}
	if err := a.Submit(trace.Op{Kind: trace.Read, Offset: a.LogicalBytes(), Size: 4096}, nil); err == nil {
		t.Error("accepted op beyond capacity")
	}
}

func TestFreeIsNoop(t *testing.T) {
	_, a := newArray(t)
	resp := sim.Time(-1)
	if err := a.Submit(trace.Op{Kind: trace.Free, Offset: 0, Size: 4096}, func(r sim.Time, _ error) { resp = r }); err != nil {
		t.Fatal(err)
	}
	if resp != 0 {
		t.Fatal("free not immediate")
	}
	if m := a.Metrics(); m.Frees != 1 || m.Completed != 1 {
		t.Fatalf("frees = %d, completed = %d, want 1 and 1", m.Frees, m.Completed)
	}
}

func TestPlayAndClosedLoop(t *testing.T) {
	_, a := newArray(t)
	play(t, a, []trace.Op{
		{At: 0, Kind: trace.Write, Offset: 0, Size: 8192},
		{At: sim.Millisecond, Kind: trace.Read, Offset: 0, Size: 8192},
	})
	if a.Metrics().Completed != 2 {
		t.Fatalf("completed = %d", a.Metrics().Completed)
	}
	eng2 := sim.NewEngine()
	a2, _ := New(eng2, testConfig())
	i := 0
	if err := closedLoop(a2, 2, func(int) (trace.Op, bool) {
		if i >= 10 {
			return trace.Op{}, false
		}
		i++
		return trace.Op{Kind: trace.Read, Offset: int64(i) * 4096, Size: 4096}, true
	}); err != nil {
		t.Fatal(err)
	}
	if a2.Metrics().Completed != 10 {
		t.Fatalf("closed loop completed %d", a2.Metrics().Completed)
	}
}

// Property: the plan conserves host bytes (data reads/writes at spindle
// level cover exactly the host range) and never places data on the
// row's parity disk.
func TestPlanProperty(t *testing.T) {
	_, a := newArray(t)
	u := a.cfg.StripeUnitBytes
	prop := func(offRaw, sizeRaw uint32, isWrite bool) bool {
		off := int64(offRaw) % (a.LogicalBytes() - int64(u))
		size := int64(sizeRaw)%(4*u) + 512
		if off+size > a.LogicalBytes() {
			size = a.LogicalBytes() - off
		}
		kind := trace.Read
		if isWrite {
			kind = trace.Write
		}
		subs := a.plan(trace.Op{Kind: kind, Offset: off, Size: size})
		var dataBytes int64
		for _, s := range subs {
			if s.op.End() > a.cfg.Disk.CapacityBytes {
				return false
			}
			// Identify parity traffic: it targets the row's parity disk.
			unit := (off + 1) / u
			_ = unit
			if kind == trace.Read {
				dataBytes += s.op.Size
			}
		}
		if kind == trace.Read && dataBytes != size {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(51))}); err != nil {
		t.Fatal(err)
	}
}

// closedLoop keeps depth requests outstanding on a, drawing ops from
// gen until it returns false, then drains the engine. It returns the
// first submission error.
func closedLoop(a *Array, depth int, gen func(i int) (trace.Op, bool)) error {
	var firstErr error
	i := 0
	var issue func(sim.Time, error)
	issue = func(sim.Time, error) {
		op, ok := gen(i)
		if !ok {
			return
		}
		i++
		if err := a.Submit(op, issue); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for k := 0; k < depth; k++ {
		issue(0, nil)
	}
	a.Engine().Run()
	return firstErr
}

// play submits each op at its trace timestamp and drains the engine.
func play(t *testing.T, a *Array, ops []trace.Op) {
	t.Helper()
	eng := a.Engine()
	for _, op := range ops {
		eng.CallAt(op.At, func(any) {
			if err := a.Submit(op, nil); err != nil {
				t.Error(err)
			}
		}, nil)
	}
	eng.Run()
}
