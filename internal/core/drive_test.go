package core

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"ossd/internal/sim"
	"ossd/internal/trace"
	"ossd/internal/workload"
)

// stormStream emits n writes all timestamped zero: the open-loop arrival
// storm admission control exists to absorb.
func stormStream(n int, size int64, space int64) trace.Stream {
	i := 0
	return trace.Func(func() (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		off := (int64(i) * size) % space
		i++
		return trace.Op{Kind: trace.Write, Offset: off, Size: size}, true
	})
}

// TestDriveMaxPendingBoundsBacklog pins the WithMaxPending contract: a
// storm the device cannot absorb keeps at most maxPending requests
// outstanding (so the device queue never grows past the bound), every
// operation still completes, and the run remains deterministic.
func TestDriveMaxPendingBoundsBacklog(t *testing.T) {
	const (
		ops   = 2000
		bound = 16
	)
	d, err := Open("ssd", WithMaxPending(bound))
	if err != nil {
		t.Fatal(err)
	}
	space := d.LogicalBytes()
	maxDepth := 0
	inner := stormStream(ops, 4096, space)
	depthProbe := trace.Func(func() (trace.Op, bool) {
		if q := d.QueueDepth(); q > maxDepth {
			maxDepth = q
		}
		return inner.Next()
	})
	if err := d.Drive(depthProbe); err != nil {
		t.Fatal(err)
	}
	if got := d.Metrics().Completed; got < ops {
		t.Fatalf("completed %d of %d: admission control shed work", got, ops)
	}
	if maxDepth > bound {
		t.Fatalf("queue depth peaked at %d, bound %d", maxDepth, bound)
	}
	if maxDepth == 0 {
		t.Fatal("storm never queued: the probe is not observing anything")
	}

	// Determinism: a second identical run finishes at the identical
	// simulated time with identical metrics.
	d2, err := Open("ssd", WithMaxPending(bound))
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Drive(stormStream(ops, 4096, d2.LogicalBytes())); err != nil {
		t.Fatal(err)
	}
	if d.Engine().Now() != d2.Engine().Now() {
		t.Fatalf("paced runs diverged: %v vs %v", d.Engine().Now(), d2.Engine().Now())
	}
	if !reflect.DeepEqual(d.Metrics(), d2.Metrics()) {
		t.Fatalf("paced runs diverged: %+v vs %+v", d.Metrics(), d2.Metrics())
	}
}

// TestDriveMaxPendingAllKinds drives a short storm against every media
// kind with a bound, checking completion and the bound on each.
func TestDriveMaxPendingAllKinds(t *testing.T) {
	for _, name := range []string{"ssd", "hdd", "mems", "raid", "osd"} {
		t.Run(name, func(t *testing.T) {
			d, err := Open(name, WithMaxPending(4))
			if err != nil {
				t.Fatal(err)
			}
			const ops = 64
			maxDepth := 0
			inner := stormStream(ops, 4096, 1<<20)
			probe := trace.Func(func() (trace.Op, bool) {
				if q := d.QueueDepth(); q > maxDepth {
					maxDepth = q
				}
				return inner.Next()
			})
			if err := d.Drive(probe); err != nil {
				t.Fatal(err)
			}
			if got := d.Metrics().Completed; got < ops {
				t.Fatalf("completed %d of %d", got, ops)
			}
			// RAID decomposes each host op into several spindle sub-ops,
			// so its media-level depth may exceed the host-level bound by
			// the per-op fan-out; every other kind queues host requests.
			if name != "raid" && maxDepth > 4 {
				t.Fatalf("queue depth peaked at %d, bound 4", maxDepth)
			}
		})
	}
}

// TestDriveStopsOnSubmitErrorAndDrains pins the mid-stream error
// contract: a failing Submit stops the replay (ops after the bad one
// are never pulled), but Drive drains the device before returning, so
// every completion callback for work already in flight has fired — a
// callback must never run against a caller that has moved on.
func TestDriveStopsOnSubmitErrorAndDrains(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"unbounded", nil},
		{"bounded", []Option{WithMaxPending(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Open("ssd", tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			space := d.LogicalBytes()
			// Three good writes, a doomed op beyond capacity, then a tail
			// that a stopped replay must never reach.
			ops := []trace.Op{
				{Kind: trace.Write, Offset: 0, Size: 4096},
				{Kind: trace.Write, Offset: 4096, Size: 4096},
				{Kind: trace.Write, Offset: 8192, Size: 4096},
				{Kind: trace.Write, Offset: space, Size: 4096}, // Submit fails
				{Kind: trace.Write, Offset: 12288, Size: 4096},
				{Kind: trace.Write, Offset: 16384, Size: 4096},
			}
			pulled := 0
			inner := trace.FromSlice(ops)
			probe := trace.Func(func() (trace.Op, bool) {
				op, ok := inner.Next()
				if ok {
					pulled++
				}
				return op, ok
			})
			err = d.Drive(probe)
			if err == nil {
				t.Fatal("Drive swallowed the Submit error")
			}
			if pulled != 4 {
				t.Fatalf("pulled %d ops, want 4: the stream must stop at the failing op", pulled)
			}
			if pending := d.Engine().Pending(); pending != 0 {
				t.Fatalf("%d events still pending after Drive returned: not drained", pending)
			}
			if q := d.QueueDepth(); q != 0 {
				t.Fatalf("%d requests still queued after Drive returned", q)
			}
			if got := d.Metrics().Completed; got != 3 {
				t.Fatalf("completed %d, want the 3 in-flight ops drained", got)
			}
		})
	}
}

// TestDriveErrorCompletionsFireBeforeReturn is the callback-lifetime
// regression for the bounded loop, where every op carries a completion
// callback: at the moment Drive returns with a mid-stream error, the
// callbacks of all previously submitted ops have already run.
func TestDriveErrorCompletionsFireBeforeReturn(t *testing.T) {
	d, err := Open("ssd", WithMaxPending(8))
	if err != nil {
		t.Fatal(err)
	}
	space := d.LogicalBytes()
	i := 0
	stream := trace.Func(func() (trace.Op, bool) {
		i++
		switch {
		case i <= 5: // a burst at t=0 so several ops are in flight at once
			return trace.Op{Kind: trace.Write, Offset: int64(i-1) * 4096, Size: 4096}, true
		case i == 6:
			return trace.Op{Kind: trace.Write, Offset: space, Size: 4096}, true
		default:
			t.Fatal("stream pulled past the failing op")
			return trace.Op{}, false
		}
	})
	if err := d.Drive(stream); err == nil {
		t.Fatal("Drive swallowed the Submit error")
	}
	// The snapshot is read the instant Drive returns: the bounded loop
	// attaches a completion callback to every op, so Completed counts
	// exactly the callbacks that have already fired.
	if done := int(d.Metrics().Completed); done != 5 {
		t.Fatalf("completed %d at return, want all 5 in-flight ops", done)
	}
	if pending := d.Engine().Pending(); pending != 0 {
		t.Fatalf("%d events still pending at return", pending)
	}
}

// TestSnapshotReadOnlyWorkloadJSON pins the empty-histogram guard: a
// device that never saw a write must report 0 (not NaN or ±Inf) for the
// write latency fields, and the snapshot must survive JSON marshaling —
// one non-finite field fails an entire simsvc payload.
func TestSnapshotReadOnlyWorkloadJSON(t *testing.T) {
	for _, name := range []string{"ssd", "hdd", "mems", "raid", "osd"} {
		t.Run(name, func(t *testing.T) {
			d, err := Open(name)
			if err != nil {
				t.Fatal(err)
			}
			var ops []trace.Op
			for i := 0; i < 32; i++ {
				ops = append(ops, trace.Op{Kind: trace.Read, Offset: int64(i) * 4096, Size: 4096})
			}
			if err := d.Drive(trace.FromSlice(ops)); err != nil {
				t.Fatal(err)
			}
			snap := d.Metrics()
			for field, v := range map[string]float64{
				"mean_write_ms": snap.MeanWriteMs,
				"p50_write_ms":  snap.P50WriteMs,
				"p95_write_ms":  snap.P95WriteMs,
				"p99_write_ms":  snap.P99WriteMs,
			} {
				if v != 0 {
					t.Errorf("%s = %v on a read-only workload, want 0", field, v)
				}
			}
			if snap.MeanReadMs <= 0 || snap.P50ReadMs <= 0 {
				t.Fatalf("read latency missing: %+v", snap)
			}
			if _, err := json.Marshal(snap); err != nil {
				t.Fatalf("snapshot does not marshal: %v", err)
			}
			// The zero-op snapshot must marshal too.
			fresh, err := Open(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := json.Marshal(fresh.Metrics()); err != nil {
				t.Fatalf("zero-op snapshot does not marshal: %v", err)
			}
		})
	}
}

// TestLatencyMsGuards pins the sanitizer itself.
func TestLatencyMsGuards(t *testing.T) {
	if v := latencyMs(math.NaN()); v != 0 {
		t.Fatalf("latencyMs(NaN) = %v, want 0", v)
	}
	if v := latencyMs(math.Inf(1)); v != 0 {
		t.Fatalf("latencyMs(+Inf) = %v, want 0", v)
	}
	if v := latencyMs(math.Inf(-1)); v != 0 {
		t.Fatalf("latencyMs(-Inf) = %v, want 0", v)
	}
	if v := latencyMs(1.5); v != 1.5 {
		t.Fatalf("latencyMs(1.5) = %v, want 1.5", v)
	}
}

// TestDriveUnboundedUnchanged guards the legacy open-loop path: without
// a bound, a paced workload completes with timestamps honored (the same
// motion as before the admission-control refactor).
func TestDriveUnboundedUnchanged(t *testing.T) {
	d, err := Open("ssd")
	if err != nil {
		t.Fatal(err)
	}
	ops := []trace.Op{
		{At: 0, Kind: trace.Write, Offset: 0, Size: 4096},
		{At: 5 * sim.Millisecond, Kind: trace.Read, Offset: 0, Size: 4096},
	}
	if err := d.Drive(trace.FromSlice(ops)); err != nil {
		t.Fatal(err)
	}
	if got := d.Metrics().Completed; got != 2 {
		t.Fatalf("completed %d, want 2", got)
	}
	if now := d.Engine().Now(); now < 5*sim.Millisecond {
		t.Fatalf("engine finished at %v, before the last arrival", now)
	}
}

// TestClosedLoopAllocs pins what closed-loop replay allocates per op on
// each kind. Every medium completes in Submit's own (resp, err) shape,
// so no kind pays an adapter per op, and every medium pools its per-op
// records: the SSD, disk and MEMS their requests; RAID its requests
// (each with its spindle callback bound once) and a per-array sub-op
// plan; the OSD its join records with their range lists. Replay
// allocates nothing per op on any kind, and the disk nothing per write
// that waits for write-cache space.
func TestClosedLoopAllocs(t *testing.T) {
	const ops, perRunBudget = 2000, 16
	for _, tc := range []struct {
		kind string
		size int64
	}{
		{"ssd", 4096}, {"hdd", 4096}, {"mems", 4096}, {"raid", 4096}, {"osd", 4096},
		// 64 KiB writes outrun the disk's write-back drain: the cache
		// fills and writes queue for space.
		{"hdd", 64 << 10},
	} {
		d, err := Open(tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(1)
		pages := d.LogicalBytes() / 2 / 4096
		full := false
		perRun := testing.AllocsPerRun(5, func() {
			n := 0
			err := ClosedLoop(d, 4, func(int) (trace.Op, bool) {
				if n == ops {
					return trace.Op{}, false
				}
				n++
				full = full || d.QueueDepth() > 0
				return trace.Op{Kind: trace.Write, Offset: rng.Int63n(pages) * 4096, Size: tc.size}, true
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		if tc.size > 4096 && !full {
			t.Errorf("%s: %d-byte writes never waited for cache space", tc.kind, tc.size)
		}
		// The loop's own closures are a fixed cost per run; an allocation
		// on even one op in ten would cost hundreds.
		if perRun > perRunBudget {
			t.Errorf("%s/%d: %.0f allocs per %d-op run, want at most %d (%.3f/op)",
				tc.kind, tc.size, perRun, ops, perRunBudget, perRun/ops)
		}
	}
}

// TestAlignedDriveAllocs pins the §3.4 aligned replay path — the
// synthetic generator, AlignStream, Shift and Drive on the base SSD — at
// zero allocations per op. Every stage reuses its records, so what a run
// allocates is its fixed setup (generator, aligner, stream wrappers,
// drive loop, the aligner's output slice growing to its largest refill),
// which must not grow with the stream: a per-op allocation anywhere on
// the path costs thousands per run.
func TestAlignedDriveAllocs(t *testing.T) {
	const ops, perRunBudget = 4000, 64
	d, err := Open("ssd")
	if err != nil {
		t.Fatal(err)
	}
	const frac = 0.6
	if err := PreconditionFrac(d, 1<<20, frac); err != nil {
		t.Fatal(err)
	}
	space := int64(float64(d.LogicalBytes())*frac) / 4096 * 4096
	seed := int64(0)
	perRun := testing.AllocsPerRun(5, func() {
		seed++
		gen, err := workload.NewStream("synthetic", workload.GenParams{
			Ops: ops, CapacityBytes: space, ReadFrac: 0.3, SeqProb: 0.5,
			MeanInterarrivalUs: 200, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := trace.AlignStream(gen, 32<<10, trace.AlignOptions{MaxGap: 6 * sim.Millisecond, ReadBarrier: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Drive(trace.Shift(s, d.Engine().Now())); err != nil {
			t.Fatal(err)
		}
	})
	if got := math.Floor(perRun / ops); got != 0 {
		t.Errorf("%v allocs/op (%.0f per %d-op run), want 0", got, perRun, ops)
	}
	if perRun > perRunBudget {
		t.Errorf("%.0f allocs per %d-op run, want at most %d (fixed setup only)", perRun, ops, perRunBudget)
	}
}
