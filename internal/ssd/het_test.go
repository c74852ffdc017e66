package ssd

import (
	"testing"

	"ossd/internal/sim"
	"ossd/internal/trace"
)

func hetConfig() Config {
	c := testConfig()
	c.Elements = 4
	c.MLCElements = 2
	return c
}

func TestHetConfigValidation(t *testing.T) {
	c := hetConfig()
	c.Layout = FullStripe
	c.StripeBytes = 0
	if _, err := New(sim.NewEngine(), c); err == nil {
		t.Error("accepted heterogeneous full-stripe device")
	}
	c = hetConfig()
	c.MLCElements = 4
	if _, err := New(sim.NewEngine(), c); err == nil {
		t.Error("accepted all-MLC MLCElements == Elements")
	}
	c = hetConfig()
	c.MLCElements = -1
	if _, err := New(sim.NewEngine(), c); err == nil {
		t.Error("accepted negative MLCElements")
	}
}

func TestRegionBoundary(t *testing.T) {
	_, d := newDevice(t, hetConfig())
	b := d.RegionBoundary()
	if b != d.LogicalBytes()/2 {
		t.Fatalf("boundary = %d, want half of %d", b, d.LogicalBytes())
	}
	_, homo := newDevice(t, testConfig())
	if homo.RegionBoundary() != 0 {
		t.Fatal("homogeneous device reports a boundary")
	}
}

func TestPageHomeSplitsRegions(t *testing.T) {
	_, d := newDevice(t, hetConfig())
	ps := int64(4096)
	slcPages := d.RegionBoundary() / ps
	// SLC region pages live on elements 0..1; MLC region on 2..3.
	for l := int64(0); l < slcPages; l += slcPages / 7 {
		if e, _ := d.pageHome(l); e >= 2 {
			t.Fatalf("slc page %d on element %d", l, e)
		}
	}
	total := d.LogicalBytes() / ps
	for l := slcPages; l < total; l += (total - slcPages) / 7 {
		if e, _ := d.pageHome(l); e < 2 {
			t.Fatalf("mlc page %d on element %d", l, e)
		}
	}
}

func TestPageHomeBijective(t *testing.T) {
	_, d := newDevice(t, hetConfig())
	total := d.LogicalBytes() / 4096
	seen := make(map[[2]int]bool)
	for l := int64(0); l < total; l++ {
		e, elpn := d.pageHome(l)
		if e < 0 || e >= 4 {
			t.Fatalf("page %d: element %d", l, e)
		}
		if elpn < 0 || elpn >= d.elems[e].LogicalPages() {
			t.Fatalf("page %d: elpn %d of %d", l, elpn, d.elems[e].LogicalPages())
		}
		key := [2]int{e, elpn}
		if seen[key] {
			t.Fatalf("page %d collides at element %d page %d", l, e, elpn)
		}
		seen[key] = true
	}
}

func TestMLCRegionSlower(t *testing.T) {
	eng, d := newDevice(t, hetConfig())
	var slc, mlc completion
	// One 4 KB write in each region.
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096}, capture(eng, &slc))
	d.Submit(trace.Op{Kind: trace.Write, Offset: d.RegionBoundary(), Size: 4096}, capture(eng, &mlc))
	eng.Run()
	if !slc.fired || !mlc.fired {
		t.Fatal("writes did not complete")
	}
	// MLC program is 4x the SLC program time.
	if mlc.resp <= 2*slc.resp {
		t.Fatalf("mlc write %v not much slower than slc %v", mlc.resp, slc.resp)
	}
}

func TestHetViolatesInterchangeability(t *testing.T) {
	// The §3.3 claim: on a heterogeneous device the address space is no
	// longer uniform. Sequential write bandwidth differs across regions.
	measure := func(base int64) sim.Time {
		eng, d := newDevice(t, hetConfig())
		n := 64
		var last completion
		for i := 0; i < n; i++ {
			d.Submit(trace.Op{Kind: trace.Write, Offset: base + int64(i)*4096, Size: 4096},
				capture(eng, &last))
		}
		eng.Run()
		return last.at
	}
	slcTime := measure(0)
	mlcTime := measure(measureBoundary(t))
	if mlcTime <= slcTime*3/2 {
		t.Fatalf("mlc region (%v) not clearly slower than slc region (%v)", mlcTime, slcTime)
	}
}

func measureBoundary(t *testing.T) int64 {
	t.Helper()
	_, d := newDevice(t, hetConfig())
	return d.RegionBoundary()
}

// ---- write buffer tests ----

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
