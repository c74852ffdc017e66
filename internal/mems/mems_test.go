package mems

import (
	"math/rand"
	"testing"

	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

func newDevice(t *testing.T) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := New(eng, G2())
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func TestConfigValidate(t *testing.T) {
	c := G2()
	c.CapacityBytes = 0
	if _, err := New(sim.NewEngine(), c); err == nil {
		t.Error("accepted zero capacity")
	}
	c = G2()
	c.StreamMBps = 0
	if _, err := New(sim.NewEngine(), c); err == nil {
		t.Error("accepted zero stream rate")
	}
}

func TestSeekGrowsWithDistance(t *testing.T) {
	_, d := newDevice(t)
	short := d.seekTime(0, 10)
	long := d.seekTime(0, d.cfg.Tracks-1)
	if short <= 0 || long <= short {
		t.Fatalf("seek curve: short %v long %v", short, long)
	}
	if s := d.seekTime(5, 5); s != 0 {
		t.Fatalf("zero-distance seek = %v", s)
	}
}

func TestSequentialStreamsAtMediaRate(t *testing.T) {
	eng, d := newDevice(t)
	const req = 1 << 20
	const n = 32
	i := 0
	err := closedLoop(d, 1, func(int) (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		op := trace.Op{Kind: trace.Read, Offset: int64(i) * req, Size: req}
		i++
		return op, true
	})
	if err != nil {
		t.Fatal(err)
	}
	bw := stats.Bandwidth(n*req, eng.Now().Seconds())
	if bw < 0.85*d.cfg.StreamMBps || bw > 1.1*d.cfg.StreamMBps {
		t.Fatalf("sequential bandwidth = %.1f, want ~%.0f", bw, d.cfg.StreamMBps)
	}
}

func TestRandomSlowerButNotDisklike(t *testing.T) {
	eng, d := newDevice(t)
	rng := rand.New(rand.NewSource(1))
	const n = 500
	i := 0
	err := closedLoop(d, 1, func(int) (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		i++
		return trace.Op{Kind: trace.Read, Offset: rng.Int63n(d.LogicalBytes()/4096) * 4096, Size: 4096}, true
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := d.Metrics().ReadResp.Mean()
	// Sub-millisecond seeks: far faster than a disk's ~12 ms, far slower
	// than streaming.
	if mean > 2 || mean < 0.05 {
		t.Fatalf("random 4K read mean = %.3f ms", mean)
	}
	bw := stats.Bandwidth(d.Metrics().BytesRead, eng.Now().Seconds())
	if bw >= d.cfg.StreamMBps/5 {
		t.Fatalf("random bandwidth %.1f too close to streaming %.0f", bw, d.cfg.StreamMBps)
	}
}

func TestSingleActuatorSerializes(t *testing.T) {
	eng, d := newDevice(t)
	// When the first request completes, the second must still be queued
	// for the sled: it cannot have started before the first finished.
	queuedAtFirst := -1
	d.Submit(trace.Op{Kind: trace.Read, Offset: 0, Size: 1 << 20}, func(sim.Time, error) { queuedAtFirst = d.QueueDepth() })
	d.Submit(trace.Op{Kind: trace.Read, Offset: 1 << 30, Size: 1 << 20}, nil)
	eng.Run()
	if queuedAtFirst != 1 {
		t.Fatalf("second request started before first finished (queue depth %d at first completion)", queuedAtFirst)
	}
}

func TestWriteAndFree(t *testing.T) {
	eng, d := newDevice(t)
	wrote := false
	freeResp := sim.Time(-1)
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 8192}, func(sim.Time, error) { wrote = true })
	d.Submit(trace.Op{Kind: trace.Free, Offset: 0, Size: 8192}, func(r sim.Time, _ error) { freeResp = r })
	eng.Run()
	if !wrote || d.Metrics().BytesWritten != 8192 {
		t.Fatal("write not accounted")
	}
	if freeResp != 0 {
		t.Fatal("free not immediate no-op")
	}
	if m := d.Metrics(); m.Frees != 1 || m.Completed != 2 {
		t.Fatalf("frees = %d, completed = %d, want 1 and 2", m.Frees, m.Completed)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, d := newDevice(t)
	if err := d.Submit(trace.Op{Kind: trace.Read, Offset: -1, Size: 4096}, nil); err == nil {
		t.Error("accepted negative offset")
	}
	if err := d.Submit(trace.Op{Kind: trace.Read, Offset: d.LogicalBytes(), Size: 4096}, nil); err == nil {
		t.Error("accepted op beyond capacity")
	}
}

func TestPlay(t *testing.T) {
	_, d := newDevice(t)
	play(t, d, []trace.Op{
		{At: 0, Kind: trace.Write, Offset: 0, Size: 65536},
		{At: sim.Millisecond, Kind: trace.Read, Offset: 1 << 28, Size: 65536},
	})
	if d.Metrics().Completed != 2 {
		t.Fatalf("completed = %d", d.Metrics().Completed)
	}
}

func TestUniformAddressSpace(t *testing.T) {
	// Unlike the zoned disk, streaming rate is identical at both ends of
	// the address space.
	measure := func(base int64) float64 {
		eng, d := newDevice(t)
		const req = 1 << 20
		i := 0
		if err := closedLoop(d, 1, func(int) (trace.Op, bool) {
			if i >= 16 {
				return trace.Op{}, false
			}
			op := trace.Op{Kind: trace.Read, Offset: base + int64(i)*req, Size: req}
			i++
			return op, true
		}); err != nil {
			t.Fatal(err)
		}
		return stats.Bandwidth(16*req, eng.Now().Seconds())
	}
	outer := measure(0)
	inner := measure(3 << 30)
	if ratio := outer / inner; ratio > 1.05 || ratio < 0.95 {
		t.Fatalf("address space not uniform: outer/inner = %.3f", ratio)
	}
}

// closedLoop keeps depth requests outstanding on d, drawing ops from
// gen until it returns false, then drains the engine. It returns the
// first submission error.
func closedLoop(d *Device, depth int, gen func(i int) (trace.Op, bool)) error {
	var firstErr error
	i := 0
	var issue func(sim.Time, error)
	issue = func(sim.Time, error) {
		op, ok := gen(i)
		if !ok {
			return
		}
		i++
		if err := d.Submit(op, issue); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for k := 0; k < depth; k++ {
		issue(0, nil)
	}
	d.Engine().Run()
	return firstErr
}

// play submits each op at its trace timestamp and drains the engine.
func play(t *testing.T, d *Device, ops []trace.Op) {
	t.Helper()
	eng := d.Engine()
	for _, op := range ops {
		eng.CallAt(op.At, func(any) {
			if err := d.Submit(op, nil); err != nil {
				t.Error(err)
			}
		}, nil)
	}
	eng.Run()
}
