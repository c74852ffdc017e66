package ssd

import (
	"errors"
	"testing"

	"ossd/internal/fault"
	"ossd/internal/sim"
	"ossd/internal/trace"
)

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
