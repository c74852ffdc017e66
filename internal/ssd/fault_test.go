package ssd

import (
	"errors"
	"testing"

	"ossd/internal/fault"
	"ossd/internal/sim"
	"ossd/internal/trace"
)

// runGangFault mirrors runGang with a fault plan attached to the config.
func runGangFault(t *testing.T, shards int, plan *fault.Plan, ops []trace.Op) *Device {
	t.Helper()
	cfg := gangConfig()
	cfg.Fault = plan
	d, err := New(sim.NewEngine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shards >= 2 {
		if err := d.EnableSharding(shards); err != nil {
			t.Fatal(err)
		}
	}
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

// Injections are keyed by (seed, element, op-seq), never iteration
// order, so a fault-plan replay — transient errors, a mid-run element
// death, and wear-ceiling retirement all active — must match the single
// engine exactly at every shard count, including the fault counters.
func TestFaultShardEquivalence(t *testing.T) {
	logical := func() int64 {
		d, err := New(sim.NewEngine(), gangConfig())
		if err != nil {
			t.Fatal(err)
		}
		return d.LogicalBytes()
	}()
	plan := &fault.Plan{
		Seed:        99,
		Transient:   &fault.Transient{Rate: 0.01, Burst: 4, RetryUs: 400},
		Deaths:      []fault.Death{{Element: 5, AfterOps: 200}},
		WearCeiling: 1,
		RemapCostUs: 300,
	}
	for _, seed := range []int64{1, 7} {
		ops := gangWorkload(seed, 3000, logical, false)
		single := runGangFault(t, 1, plan, ops)
		sm := single.Metrics()
		if sm.FaultsInjected == 0 {
			t.Fatalf("seed %d: plan injected nothing", seed)
		}
		if sm.Errors == 0 {
			t.Fatalf("seed %d: element death produced no errors", seed)
		}
		if sm.RetiredBlocks == 0 {
			t.Fatalf("seed %d: wear ceiling retired nothing", seed)
		}
		for _, shards := range []int{2, 4, 8} {
			sharded := runGangFault(t, shards, plan, ops)
			t.Logf("seed %d shards %d", seed, shards)
			compareDevices(t, single, sharded)
			bm := sharded.Metrics()
			if sm.FaultsInjected != bm.FaultsInjected || sm.FaultRetries != bm.FaultRetries {
				t.Errorf("fault counters diverge: single %d/%d sharded %d/%d",
					sm.FaultsInjected, sm.FaultRetries, bm.FaultsInjected, bm.FaultRetries)
			}
			if sm.RetiredBlocks != bm.RetiredBlocks || sm.RemappedPages != bm.RemappedPages {
				t.Errorf("retirement counters diverge: single %d/%d sharded %d/%d",
					sm.RetiredBlocks, sm.RemappedPages, bm.RetiredBlocks, bm.RemappedPages)
			}
		}
	}
}

// A dead element fails every request that touches it, immediately and
// deterministically, while the rest of the gang keeps serving.
func TestElementDeathFailsRequests(t *testing.T) {
	cfg := gangConfig()
	cfg.Fault = &fault.Plan{Deaths: []fault.Death{{Element: 3, AfterOps: 0}}}
	d, err := New(sim.NewEngine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gotErr error
	// Page 3 lives on element 3 (interleaved: l mod 8).
	err = d.Submit(trace.Op{Kind: trace.Write, Offset: 3 * 4096, Size: 4096}, func(_ sim.Time, err error) {
		gotErr = err
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Engine().Run()
	if !errors.Is(gotErr, fault.ErrElementDead) {
		t.Fatalf("request on dead element returned %v", gotErr)
	}
	m := d.Metrics()
	if m.Errors != 1 || m.Completed != 1 {
		t.Fatalf("errors %d completed %d, want 1/1", m.Errors, m.Completed)
	}
	// A healthy element still serves.
	gotErr = errors.New("callback never ran")
	err = d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096}, func(_ sim.Time, err error) {
		gotErr = err
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Engine().Run()
	if gotErr != nil {
		t.Fatalf("healthy element failed: %v", gotErr)
	}
}

// Transient faults slow ops down (the retry cost) without failing them.
func TestTransientFaultsAddLatencyNotErrors(t *testing.T) {
	run := func(plan *fault.Plan) Metrics {
		cfg := gangConfig()
		cfg.Fault = plan
		d, err := New(sim.NewEngine(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			op := trace.Op{Kind: trace.Write, Offset: int64(i%64) * 4096, Size: 4096}
			if err := d.Submit(op, nil); err != nil {
				t.Fatal(err)
			}
			d.Engine().Run()
		}
		return d.Metrics()
	}
	clean := run(nil)
	faulty := run(&fault.Plan{Seed: 5, Transient: &fault.Transient{Rate: 0.05, RetryUs: 800}})
	if faulty.FaultsInjected == 0 {
		t.Fatalf("no faults injected at 5%% rate")
	}
	if faulty.Errors != 0 {
		t.Fatalf("transient faults produced %d hard errors", faulty.Errors)
	}
	if faulty.FaultRetries != faulty.FaultsInjected {
		t.Fatalf("retries %d != injected %d", faulty.FaultRetries, faulty.FaultsInjected)
	}
	if faulty.WriteResp.Mean() <= clean.WriteResp.Mean() {
		t.Fatalf("retry cost invisible: faulty mean %v <= clean %v",
			faulty.WriteResp.Mean(), clean.WriteResp.Mean())
	}
	if clean.FaultsInjected != 0 || clean.RetiredBlocks != 0 {
		t.Fatalf("clean run reports fault counters: %+v", clean)
	}
}
