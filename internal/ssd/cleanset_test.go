package ssd_test

import (
	"math/rand"
	"testing"

	"ossd/internal/fault"
	"ossd/internal/flash"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/trace"
)

// The cleaning hooks visit only the elements in the device's cleaning
// set, which is maintained incrementally. These tests are its oracle:
// randomized runs recompute the cleaning predicate over every element
// at each completion and require the set to match it exactly.

// oracleConfig is a 4-element interleaved SWTF device whose tiny
// geometry cycles its capacity quickly, with watermarks above the FTL's
// forced-clean slack so the device itself cleans. It is informed, so
// frees change FTL state too.
func oracleConfig() ssd.Config {
	return ssd.Config{
		Elements:      4,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 8, BlocksPerPackage: 32},
		Overprovision: 0.15,
		Informed:      true,
		Layout:        ssd.Interleaved,
		Scheduler:     sched.SWTF,
		CtrlOverhead:  20 * sim.Microsecond,
		GCLow:         0.12,
		GCCritical:    0.03,
	}
}

// oracleOps fills the device sequentially, then issues n random ops:
// mostly multi-page writes (some unaligned, so read-modify-write runs),
// reads, multi-page frees, and a share of priority requests.
func oracleOps(seed int64, space int64, n int) func(int) (trace.Op, bool) {
	rng := rand.New(rand.NewSource(seed))
	var off int64
	done := 0
	return func(int) (trace.Op, bool) {
		if off < space {
			op := trace.Op{Kind: trace.Write, Offset: off, Size: min(64<<10, space-off)}
			off += op.Size
			return op, true
		}
		if done >= n {
			return trace.Op{}, false
		}
		done++
		op := trace.Op{Kind: trace.Write, Size: int64(1+rng.Intn(4)) * 4096, Priority: rng.Intn(10) < 3}
		switch r := rng.Intn(20); {
		case r < 3:
			op.Kind = trace.Free
			op.Size *= 2
		case r < 7:
			op.Kind = trace.Read
		}
		op.Offset = rng.Int63n((space-op.Size)/4096+1) * 4096
		if op.Kind == trace.Write && rng.Intn(4) == 0 && op.Offset+op.Size+512 <= space {
			op.Offset += 512
		}
		return op, true
	}
}

func checkElements(t *testing.T, d *ssd.Device) {
	t.Helper()
	for e, el := range d.Elements() {
		if err := el.CheckInvariants(); err != nil {
			t.Fatalf("element %d: %v", e, err)
		}
	}
}

func TestCleanSetOracle(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ssd.Config)
	}{
		{"interleaved", func(*ssd.Config) {}},
		{"full-stripe", func(c *ssd.Config) {
			c.Layout, c.StripeBytes = ssd.FullStripe, 4*4096
		}},
		{"priority-aware", func(c *ssd.Config) { c.PriorityAware = true }},
		{"write-buffer", func(c *ssd.Config) { c.WriteBufferBytes = 64 << 10 }},
		{"fault-death", func(c *ssd.Config) {
			c.Fault = &fault.Plan{
				Seed:      3,
				Transient: &fault.Transient{Rate: 0.05},
				Deaths:    []fault.Death{{Element: 1, AfterOps: 400}},
			}
		}},
		// Three bitset words: membership must not leak across words.
		{"130-elements", func(c *ssd.Config) { c.Elements = 130 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := oracleConfig()
			tc.mutate(&cfg)
			d, err := ssd.New(sim.NewEngine(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			space := d.LogicalBytes()
			gen := oracleOps(7, space, int(space/4096))
			var issue func(sim.Time, error)
			issue = func(sim.Time, error) {
				if err := ssd.CleanSetErr(d); err != nil {
					t.Fatal(err)
				}
				if op, ok := gen(0); ok {
					if err := d.Submit(op, issue); err != nil {
						t.Fatal(err)
					}
				}
			}
			for k := 0; k < 4; k++ {
				issue(0, nil)
			}
			d.Engine().Run()
			if err := ssd.CleanSetErr(d); err != nil {
				t.Fatal(err)
			}
			m := d.Metrics()
			if m.BackgroundCleans == 0 {
				t.Fatal("the device never cleaned: the set was never exercised")
			}
			if cfg.Fault != nil && m.Errors == 0 {
				t.Fatal("the dead element never failed a request")
			}
			checkElements(t, d)
		})
	}
}

// filledBelowLow builds a one-element informed device with its low
// watermark above the overprovisioned 15% and fills it once in order,
// so it ends below low with nothing reclaimable and no clean run.
func filledBelowLow(t *testing.T, cfg ssd.Config) *ssd.Device {
	t.Helper()
	cfg.Elements = 1
	cfg.GCLow = 0.2 // above the overprovisioned 15%: full is below low
	d, err := ssd.New(sim.NewEngine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := oracleOps(1, d.LogicalBytes(), 0)
	var issue func(sim.Time, error)
	issue = func(sim.Time, error) {
		if op, ok := gen(0); ok {
			if err := d.Submit(op, issue); err != nil {
				t.Fatal(err)
			}
		}
	}
	issue(0, nil)
	d.Engine().Run()
	el := d.Elements()[0]
	if el.FreeFraction() >= d.Config().GCLow || el.CanClean() || d.Metrics().BackgroundCleans != 0 {
		t.Fatalf("after the fill: free %.3f, can clean %v, cleans %d; want below low, nothing reclaimable, none",
			el.FreeFraction(), el.CanClean(), d.Metrics().BackgroundCleans)
	}
	return d
}

// A free changes no free-page count, but on an informed device it can
// give a below-watermark element its first reclaimable block: the
// element must join the cleaning set and be cleaned at once.
func TestFreeJoinsCleaningSet(t *testing.T) {
	d := filledBelowLow(t, oracleConfig())
	if err := d.Submit(trace.Op{Kind: trace.Free, Offset: 0, Size: 4096}, nil); err != nil {
		t.Fatal(err)
	}
	d.Engine().Run()
	if err := ssd.CleanSetErr(d); err != nil {
		t.Fatal(err)
	}
	if d.Metrics().BackgroundCleans == 0 {
		t.Fatal("the freed element was never cleaned")
	}
}

// TestFreeCleansInSamePump: a free dispatched while its element is idle
// makes that element reclaimable, and the same Pump must start its
// clean. The host link keeps the free from completing on the spot, so
// only serve's report of the free can buy the driver the round that
// starts it.
func TestFreeCleansInSamePump(t *testing.T) {
	cfg := oracleConfig()
	cfg.InterfaceMBps = 100
	d := filledBelowLow(t, cfg)
	if err := d.Submit(trace.Op{Kind: trace.Free, Offset: 0, Size: 4096}, nil); err != nil {
		t.Fatal(err)
	}
	if d.Metrics().Completed == d.Metrics().Requests {
		t.Fatal("the free completed on the spot; the test needs it in flight")
	}
	if n := d.Metrics().BackgroundCleans; n != 1 {
		t.Fatalf("%d cleans started by the free's pump, want 1", n)
	}
}
