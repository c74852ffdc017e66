package hdd

import (
	"math/rand"
	"testing"

	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

func newDisk(t *testing.T, cfg Config) (*sim.Engine, *Disk) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func TestConfigValidate(t *testing.T) {
	cfg := Barracuda7200()
	cfg.CapacityBytes = 0
	if _, err := New(sim.NewEngine(), cfg); err == nil {
		t.Error("accepted zero capacity")
	}
	cfg = Barracuda7200()
	cfg.Zones = 0
	if _, err := New(sim.NewEngine(), cfg); err != nil {
		t.Errorf("zero zones should default to 1: %v", err)
	}
}

func TestZoneMapping(t *testing.T) {
	_, d := newDisk(t, Barracuda7200())
	if z := d.zoneOf(0); z != 0 {
		t.Fatalf("zoneOf(0) = %d", z)
	}
	if z := d.zoneOf(d.cfg.CapacityBytes - 1); z != d.cfg.Zones-1 {
		t.Fatalf("last byte zone = %d, want %d", z, d.cfg.Zones-1)
	}
	// Outer zone must be faster than inner.
	if d.zoneRate[0] <= d.zoneRate[d.cfg.Zones-1] {
		t.Fatal("outer zone not faster than inner")
	}
	// Cylinder mapping is monotone.
	prev := -1
	for off := int64(0); off < d.cfg.CapacityBytes; off += d.cfg.CapacityBytes / 64 {
		c := d.cylOf(off, d.zoneOf(off))
		if c < prev {
			t.Fatalf("cylinder mapping not monotone at %d", off)
		}
		prev = c
	}
}

func TestSeekCurve(t *testing.T) {
	_, d := newDisk(t, Barracuda7200())
	if s := d.seekTime(100, 100); s != 0 {
		t.Fatalf("zero-distance seek = %v", s)
	}
	short := d.seekTime(0, 1)
	long := d.seekTime(0, d.cfg.Cylinders-1)
	if short <= 0 || long <= short {
		t.Fatalf("seek curve broken: short %v long %v", short, long)
	}
	// Full stroke lands near the configured anchor.
	if long < d.cfg.FullStroke/2 || long > 2*d.cfg.FullStroke {
		t.Fatalf("full stroke = %v, anchor %v", long, d.cfg.FullStroke)
	}
	// Monotone in distance.
	prev := sim.Time(0)
	for dist := 1; dist < d.cfg.Cylinders; dist *= 4 {
		s := d.seekTime(0, dist)
		if s < prev {
			t.Fatalf("seek not monotone at %d", dist)
		}
		prev = s
	}
}

func TestSequentialReadBandwidth(t *testing.T) {
	eng, d := newDisk(t, Barracuda7200())
	const reqSize = 1 << 20
	const n = 64
	i := 0
	err := closedLoop(d, 1, func(int) (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		op := trace.Op{Kind: trace.Read, Offset: int64(i) * reqSize, Size: reqSize}
		i++
		return op, true
	})
	if err != nil {
		t.Fatal(err)
	}
	bw := stats.Bandwidth(int64(n)*reqSize, eng.Now().Seconds())
	// Outer zone: close to the configured max rate.
	if bw < 70 || bw > 95 {
		t.Fatalf("sequential read bandwidth = %.1f MB/s, want ~87", bw)
	}
}

func TestRandomReadLatency(t *testing.T) {
	eng, d := newDisk(t, Barracuda7200())
	rng := rand.New(rand.NewSource(1))
	const n = 200
	i := 0
	err := closedLoop(d, 1, func(int) (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		i++
		off := rng.Int63n(d.LogicalBytes()/4096) * 4096
		return trace.Op{Kind: trace.Read, Offset: off, Size: 4096}, true
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := d.Metrics().ReadResp.Mean()
	// Seek + half rotation + transfer: 10-16 ms for a 7200 RPM drive.
	if mean < 8 || mean > 20 {
		t.Fatalf("random 4K read mean = %.2f ms, want 8-20", mean)
	}
	bw := stats.Bandwidth(d.Metrics().BytesRead, eng.Now().Seconds())
	if bw > 1.0 {
		t.Fatalf("random read bandwidth = %.2f MB/s, implausibly fast", bw)
	}
}

func TestWriteCacheAbsorbsBurst(t *testing.T) {
	eng, d := newDisk(t, Barracuda7200())
	resp := sim.Time(-1)
	d.Submit(trace.Op{Kind: trace.Write, Offset: 123 * 4096, Size: 4096}, func(r sim.Time, _ error) { resp = r })
	eng.Run()
	if resp < 0 {
		t.Fatal("write never completed")
	}
	if resp > sim.Millisecond {
		t.Fatalf("cached write response = %v, want ~cache latency", resp)
	}
}

func TestRandomWriteFasterThanRandomRead(t *testing.T) {
	// The CLOOK drain must make sustained random writes faster than
	// random reads (Table 2: 1.3 vs 0.6 MB/s).
	measure := func(kind trace.Kind) float64 {
		eng, d := newDisk(t, Barracuda7200())
		rng := rand.New(rand.NewSource(7))
		const n = 3000
		i := 0
		if err := closedLoop(d, 4, func(int) (trace.Op, bool) {
			if i >= n {
				return trace.Op{}, false
			}
			i++
			off := rng.Int63n(d.LogicalBytes()/4096) * 4096
			return trace.Op{Kind: kind, Offset: off, Size: 4096}, true
		}); err != nil {
			t.Fatal(err)
		}
		return stats.Bandwidth(int64(n)*4096, eng.Now().Seconds())
	}
	wr := measure(trace.Write)
	rd := measure(trace.Read)
	if wr <= rd {
		t.Fatalf("random write %.2f MB/s not faster than read %.2f MB/s", wr, rd)
	}
	if wr > 10*rd {
		t.Fatalf("random write %.2f MB/s implausibly faster than read %.2f", wr, rd)
	}
}

func TestCacheReadHit(t *testing.T) {
	eng, d := newDisk(t, Barracuda7200())
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096}, nil)
	resp := sim.Time(-1)
	d.Submit(trace.Op{Kind: trace.Read, Offset: 0, Size: 4096}, func(r sim.Time, _ error) { resp = r })
	eng.Run()
	if resp < 0 || resp >= sim.Millisecond {
		t.Fatalf("read response = %v, want a sub-millisecond cache hit", resp)
	}
	if d.Metrics().CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", d.Metrics().CacheHits)
	}
}

func TestWriteThroughWithoutCache(t *testing.T) {
	cfg := Barracuda7200()
	cfg.CacheBytes = 0
	eng, d := newDisk(t, cfg)
	var resp sim.Time
	d.Submit(trace.Op{Kind: trace.Write, Offset: 12345 * 4096, Size: 4096}, func(r sim.Time, _ error) { resp = r })
	eng.Run()
	if resp < sim.Millisecond {
		t.Fatalf("write-through response = %v, want mechanical latency", resp)
	}
}

func TestFreeIsNoop(t *testing.T) {
	eng, d := newDisk(t, Barracuda7200())
	resp := sim.Time(-1)
	d.Submit(trace.Op{Kind: trace.Free, Offset: 0, Size: 4096}, func(r sim.Time, _ error) { resp = r })
	eng.Run()
	if resp != 0 {
		t.Fatal("free not immediate")
	}
	if m := d.Metrics(); m.Frees != 1 || m.Completed != 1 {
		t.Fatalf("frees = %d, completed = %d, want 1 and 1", m.Frees, m.Completed)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, d := newDisk(t, Barracuda7200())
	if err := d.Submit(trace.Op{Kind: trace.Read, Offset: -1, Size: 4096}, nil); err == nil {
		t.Error("accepted negative offset")
	}
	if err := d.Submit(trace.Op{Kind: trace.Read, Offset: d.LogicalBytes(), Size: 4096}, nil); err == nil {
		t.Error("accepted op beyond capacity")
	}
}

func TestPlayDrains(t *testing.T) {
	_, d := newDisk(t, Barracuda7200())
	ops := []trace.Op{
		{At: 0, Kind: trace.Write, Offset: 0, Size: 65536},
		{At: sim.Millisecond, Kind: trace.Read, Offset: 1 << 30, Size: 65536},
	}
	play(t, d, ops)
	if d.Metrics().Completed != 2 {
		t.Fatalf("completed = %d", d.Metrics().Completed)
	}
}

func TestCLOOKWrapsAround(t *testing.T) {
	eng, d := newDisk(t, Barracuda7200())
	// Fill cache with writes below the head position, then one above:
	// CLOOK serves the one at/after the head first, then wraps.
	d.Submit(trace.Op{Kind: trace.Read, Offset: d.LogicalBytes() / 2, Size: 4096}, nil)
	eng.Run() // park the head mid-disk
	lowOff := int64(4096)
	highOff := d.LogicalBytes() - 1<<20
	d.Submit(trace.Op{Kind: trace.Write, Offset: lowOff, Size: 4096}, nil)
	d.Submit(trace.Op{Kind: trace.Write, Offset: highOff, Size: 4096}, nil)
	// Both are absorbed by cache; drain order must visit highOff (ahead
	// of the head) before wrapping to lowOff.
	first := d.nextDrain()
	if first.off != highOff {
		t.Fatalf("CLOOK drained %d first, want %d (ahead of head)", first.off, highOff)
	}
	eng.Run()
	if len(d.cache) != 0 {
		t.Fatal("cache not drained")
	}
}

func TestWaitingWritesAdmittedInOrder(t *testing.T) {
	cfg := Barracuda7200()
	cfg.CacheBytes = 8192 // two 4 KB entries
	eng, d := newDisk(t, cfg)
	var order []int64
	for i := int64(0); i < 4; i++ {
		off := i * 1 << 20
		d.Submit(trace.Op{Kind: trace.Write, Offset: off, Size: 4096},
			func(sim.Time, error) { order = append(order, off) })
	}
	eng.Run()
	if len(order) != 4 {
		t.Fatalf("completed %d of 4", len(order))
	}
	// The two blocked writes are admitted as drains free space, preserving
	// their relative submission order (absolute completion order mixes
	// with the cache-latency acks of the unblocked writes).
	pos := map[int64]int{}
	for i, off := range order {
		pos[off] = i
	}
	if pos[2<<20] > pos[3<<20] {
		t.Fatalf("waiting writes out of relative order: %v", order)
	}
}

func TestSequentialDetectionResetsOnSeek(t *testing.T) {
	_, d := newDisk(t, Barracuda7200())
	d.serviceTime(1<<30, 4096) // park the head away from offset 0
	seq := d.serviceTime(0, 65536)
	cont := d.serviceTime(65536, 65536)
	if cont >= seq {
		t.Fatalf("sequential continuation (%v) not cheaper than first access (%v)", cont, seq)
	}
	jump := d.serviceTime(d.LogicalBytes()/2, 65536)
	if jump <= cont {
		t.Fatalf("seek after jump (%v) not dearer than continuation (%v)", jump, cont)
	}
}

// closedLoop keeps depth requests outstanding on d, drawing ops from
// gen until it returns false, then drains the engine. It returns the
// first submission error.
func closedLoop(d *Disk, depth int, gen func(i int) (trace.Op, bool)) error {
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
func play(t *testing.T, d *Disk, ops []trace.Op) {
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
