package ssd

import (
	"testing"

	"ossd/internal/sim"
	"ossd/internal/trace"
)

func bufConfig(buf int64) Config {
	c := testConfig()
	c.WriteBufferBytes = buf
	c.CtrlOverhead = 10 * sim.Microsecond
	return c
}

func TestWriteBufferMasksLatency(t *testing.T) {
	eng, d := newDevice(t, bufConfig(1<<20))
	var r completion
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096}, capture(eng, &r))
	eng.Run()
	if !r.fired {
		t.Fatal("write never completed")
	}
	// Host sees only the buffer-insert latency, far below the ~300us
	// program time.
	if r.resp > 50*sim.Microsecond {
		t.Fatalf("buffered write response = %v, want ~ctrl overhead", r.resp)
	}
	m := d.Metrics()
	if m.BufferedWrites != 1 || m.BufferBypass != 0 {
		t.Fatalf("buffer counters: %+v", m)
	}
	// The media work still happened.
	if g := d.GCStats(); g.HostPageWrites != 1 {
		t.Fatalf("drain did not write media: %+v", g)
	}
	if d.bufOccupancy != 0 {
		t.Fatalf("buffer not released: %d", d.bufOccupancy)
	}
}

func TestWriteBufferFullBypasses(t *testing.T) {
	eng, d := newDevice(t, bufConfig(8192))
	// Three 4 KB writes: the first two fit, the third bypasses.
	var resp []sim.Time
	for i := 0; i < 3; i++ {
		d.Submit(trace.Op{Kind: trace.Write, Offset: int64(i) * 4096, Size: 4096},
			func(r sim.Time, _ error) { resp = append(resp, r) })
	}
	eng.Run()
	m := d.Metrics()
	if m.BufferedWrites != 2 || m.BufferBypass != 1 {
		t.Fatalf("buffer counters: buffered=%d bypass=%d", m.BufferedWrites, m.BufferBypass)
	}
}

func TestWriteBufferDoesNotChangeSustainedBandwidth(t *testing.T) {
	// The paper's S3 observation: the cache cannot mask sustained random
	// writes — drain throughput equals media throughput.
	run := func(buf int64) sim.Time {
		eng, d := newDevice(t, bufConfig(buf))
		n := int(d.LogicalBytes()/4096) * 2
		rng := sim.NewRNG(3)
		i := 0
		closedLoop(d, 8, func(int) (trace.Op, bool) {
			if i >= n {
				return trace.Op{}, false
			}
			i++
			return trace.Op{Kind: trace.Write, Offset: rng.Int63n(d.LogicalBytes()/4096) * 4096, Size: 4096}, true
		})
		eng.Run()
		return eng.Now()
	}
	without := run(0)
	with := run(1 << 20)
	ratio := float64(with) / float64(without)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("buffer changed sustained write time by %.2fx", ratio)
	}
}

func TestWriteBufferPriorityBalance(t *testing.T) {
	// Buffered priority writes must not leak the outstanding-priority
	// counter (it gates priority-aware cleaning).
	eng, d := newDevice(t, bufConfig(1<<20))
	for i := 0; i < 10; i++ {
		d.Submit(trace.Op{Kind: trace.Write, Offset: int64(i) * 4096, Size: 4096, Priority: true}, nil)
	}
	eng.Run()
	if d.outstandingPri != 0 {
		t.Fatalf("outstanding priority leaked: %d", d.outstandingPri)
	}
}
