package ssd

import (
	"fmt"
	"math"
	"testing"

	"ossd/internal/flash"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/trace"
)

// gangConfig builds an 8-element interleaved SWTF device that satisfies
// the sharding gate, with watermarks low enough that the randomized
// workloads trigger cleaning.
func gangConfig() Config {
	return Config{
		Elements:      8,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 8, BlocksPerPackage: 32},
		Overprovision: 0.15,
		Layout:        Interleaved,
		Scheduler:     sched.SWTF,
		CtrlOverhead:  20 * sim.Microsecond,
		GCLow:         0.12,
		GCCritical:    0.03,
	}
}

// driveOps replays ops on the device's own engine with the exact shape
// of core's unbounded drive loop: each arrival at max(op.At, now), one
// pending arrival at a time.
func driveOps(d *Device, ops []trace.Op) error {
	s := trace.FromSlice(ops)
	op, ok := s.Next()
	if !ok {
		return nil
	}
	at := op.At
	if now := d.eng.Now(); at < now {
		at = now
	}
	dl := &mergedLoop{d: d, s: s, op: op}
	d.eng.CallAt(at, mergedArriveEvent, dl)
	d.eng.Run()
	if dl.err == nil {
		dl.err = trace.Err(s)
	}
	return dl.err
}

// gangWorkload synthesizes a mixed open-loop trace: mostly single-page
// random reads/writes with bursts of duplicate timestamps, single-page
// frees, and (when span is true) one gang-wide write ~70% in that forces
// the merge transition on every shard count.
func gangWorkload(seed int64, n int, logical int64, span bool) []trace.Op {
	rng := sim.NewRNG(seed)
	pages := logical / 4096
	ops := make([]trace.Op, 0, n)
	var at sim.Time
	for i := 0; i < n; i++ {
		// ~1/4 of arrivals share the previous timestamp: cross-shard
		// completions and arrivals collide on equal clocks.
		if rng.Int63n(4) != 0 {
			at += sim.Time(rng.Int63n(200)) * sim.Microsecond
		}
		op := trace.Op{At: at, Offset: rng.Int63n(pages) * 4096, Size: 4096}
		switch rng.Int63n(10) {
		case 0:
			op.Kind = trace.Free
		case 1, 2, 3:
			op.Kind = trace.Read
		default:
			op.Kind = trace.Write
		}
		if span && i == n*7/10 {
			// Eight pages starting at page 0: touches every element, so
			// it spans groups at any shard count >= 2.
			op = trace.Op{At: at, Kind: trace.Write, Offset: 0, Size: 8 * 4096}
		}
		ops = append(ops, op)
	}
	return ops
}

// runGang builds a device, preconditions 60% of it through the control
// path, replays ops (sharded when shards >= 2), and returns the device.
func runGang(t *testing.T, shards int, ops []trace.Op) *Device {
	t.Helper()
	d, err := New(sim.NewEngine(), gangConfig())
	if err != nil {
		t.Fatal(err)
	}
	if shards >= 2 {
		if err := d.EnableSharding(shards); err != nil {
			t.Fatal(err)
		}
	}
	// Precondition on the control engine (exactly what core.Precondition
	// does), so the parallel phase starts from a mapped, GC-active state.
	var off int64
	space := d.LogicalBytes() * 6 / 10
	err = closedLoop(d, 1, func(int) (trace.Op, bool) {
		if off >= space {
			return trace.Op{}, false
		}
		op := trace.Op{Kind: trace.Write, Offset: off, Size: 1 << 16}
		off += 1 << 16
		return op, true
	})
	if err != nil {
		t.Fatal(err)
	}
	if shards >= 2 {
		err = d.DriveStream(trace.FromSlice(ops))
	} else {
		err = driveOps(d, ops)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameFloat requires bit-level equality: the merged sample replay feeds
// the histograms in the single engine's completion order, so even the
// order-sensitive Welford accumulators must match exactly on these
// workloads.
func sameFloat(t *testing.T, what string, a, b float64) {
	t.Helper()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("%s: single %v sharded %v", what, a, b)
	}
}

func compareDevices(t *testing.T, single, sharded *Device) {
	t.Helper()
	a, b := single.Metrics(), sharded.Metrics()
	if a.Requests != b.Requests || a.Completed != b.Completed {
		t.Errorf("requests/completed: single %d/%d sharded %d/%d", a.Requests, a.Completed, b.Requests, b.Completed)
	}
	if a.BytesRead != b.BytesRead || a.BytesWritten != b.BytesWritten {
		t.Errorf("bytes: single %d/%d sharded %d/%d", a.BytesRead, a.BytesWritten, b.BytesRead, b.BytesWritten)
	}
	if a.Frees != b.Frees || a.Errors != b.Errors || a.BackgroundCleans != b.BackgroundCleans {
		t.Errorf("frees/errors/cleans: single %d/%d/%d sharded %d/%d/%d",
			a.Frees, a.Errors, a.BackgroundCleans, b.Frees, b.Errors, b.BackgroundCleans)
	}
	for _, h := range []struct {
		name string
		a, b interface {
			N() uint64
			Mean() float64
			Percentile(float64) float64
		}
	}{
		{"read", a.ReadResp, b.ReadResp},
		{"write", a.WriteResp, b.WriteResp},
		{"bg", a.BgResp, b.BgResp},
	} {
		if h.a.N() != h.b.N() {
			t.Errorf("%s N: single %d sharded %d", h.name, h.a.N(), h.b.N())
			continue
		}
		sameFloat(t, h.name+" mean", h.a.Mean(), h.b.Mean())
		for _, p := range []float64{0, 50, 99, 100} {
			sameFloat(t, fmt.Sprintf("%s p%v", h.name, p), h.a.Percentile(p), h.b.Percentile(p))
		}
	}
	ga, gb := single.GCStats(), sharded.GCStats()
	if ga != gb {
		t.Errorf("gc stats diverge:\nsingle  %+v\nsharded %+v", ga, gb)
	}
	if na, nb := single.Engine().Now(), sharded.Engine().Now(); na != nb {
		t.Errorf("final clock: single %v sharded %v", na, nb)
	}
}

// TestShardEquivalence is the correctness bar of the sharded dataplane:
// for mixed randomized workloads — with and without a mid-stream
// gang-spanning request forcing the merge transition — every metric the
// report can observe is identical to the single-engine run at shard
// counts 2, 4, and 8.
func TestShardEquivalence(t *testing.T) {
	logical := func() int64 {
		d, err := New(sim.NewEngine(), gangConfig())
		if err != nil {
			t.Fatal(err)
		}
		return d.LogicalBytes()
	}()
	for _, span := range []bool{false, true} {
		name := map[bool]string{false: "parallel-only", true: "with-merge"}[span]
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 42} {
				ops := gangWorkload(seed, 3000, logical, span)
				single := runGang(t, 1, ops)
				for _, shards := range []int{2, 4, 8} {
					sharded := runGang(t, shards, ops)
					t.Logf("seed %d shards %d", seed, shards)
					compareDevices(t, single, sharded)
				}
			}
		})
	}
}

// TestShardableConfigGate pins the couplings that must refuse to shard.
func TestShardableConfigGate(t *testing.T) {
	base := gangConfig()
	if err := ShardableConfig(base, 4); err != nil {
		t.Fatalf("base config must shard: %v", err)
	}
	mutate := map[string]func(*Config){
		"fcfs":       func(c *Config) { c.Scheduler = sched.FCFS },
		"fullstripe": func(c *Config) { c.Layout = FullStripe; c.StripeBytes = 8 * 4096 },
		"mlc":        func(c *Config) { c.MLCElements = 2 },
		"link":       func(c *Config) { c.InterfaceMBps = 100 },
		"buffer":     func(c *Config) { c.WriteBufferBytes = 1 << 20 },
		"priority":   func(c *Config) { c.PriorityAware = true },
	}
	for name, fn := range mutate {
		c := base
		fn(&c)
		if err := ShardableConfig(c, 4); err == nil {
			t.Errorf("%s: config must not shard", name)
		}
	}
	if err := ShardableConfig(base, 3); err == nil {
		t.Error("8 elements into 3 shards must not shard")
	}
	if err := ShardableConfig(base, 1); err == nil {
		t.Error("1 shard must be rejected (use the plain device)")
	}
}

// TestRequestFreelistSteadyState pins the satellite allocation contract:
// once warm, the submit/complete cycle reuses pooled requests.
func TestRequestFreelistSteadyState(t *testing.T) {
	d, err := New(sim.NewEngine(), gangConfig())
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	// Warm the pool and the FTL mappings.
	for i := 0; i < 64; i++ {
		if err := d.Submit(trace.Op{Kind: trace.Write, Offset: off, Size: 4096}, nil); err != nil {
			t.Fatal(err)
		}
		off += 4096
		d.eng.Run()
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.Submit(trace.Op{Kind: trace.Write, Offset: off % (1 << 20), Size: 4096}, nil); err != nil {
			t.Fatal(err)
		}
		off += 4096
		d.eng.Run()
	})
	if allocs > 0 {
		t.Fatalf("submit/complete cycle allocates %.1f per op, want 0", allocs)
	}
}
