// Package ossd's root benchmarks regenerate each table and figure of the
// paper at the size cmd/repro reports, one benchmark per artifact, and
// report the headline number of each result as a custom metric. Run
// everything with:
//
//	go test -bench=. -benchmem
//
// cmd/repro produces the report itself; these benches exist so the
// whole evaluation is reachable through the standard Go tooling and so
// regressions in the reproduced shapes show up as metric drift.
package ossd

import (
	"fmt"
	"math"
	"testing"

	"ossd/internal/core"
	"ossd/internal/experiments"
	"ossd/internal/flash"
	"ossd/internal/ftl"
	"ossd/internal/runner"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/trace"
	"ossd/internal/workload"
)

// BenchmarkTable1Contract probes the six unwritten-contract terms.
func BenchmarkTable1Contract(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Contract(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		violated := 0
		for _, row := range r.Rows {
			if !row.SSD {
				violated++
			}
		}
		b.ReportMetric(float64(violated), "ssd-terms-violated")
	}
}

// BenchmarkTable2SeqRand regenerates the bandwidth table.
func BenchmarkTable2SeqRand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Device == "HDD" {
				b.ReportMetric(row.ReadRatio, "hdd-read-ratio")
			}
			if row.Device == "S4slc_sim" {
				b.ReportMetric(row.ReadRatio, "s4-read-ratio")
			}
		}
	}
}

// BenchmarkSWTFvsFCFS regenerates the §3.2 scheduling comparison.
func BenchmarkSWTFvsFCFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.SWTF(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ImprovementPct, "improvement-%")
	}
}

// BenchmarkFigure2WriteAmplification regenerates the saw-tooth sweep.
func BenchmarkFigure2WriteAmplification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure2(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PeakMBps, "peak-MBps")
		b.ReportMetric(r.TroughMBps, "trough-MBps")
	}
}

// BenchmarkTable3Alignment regenerates the alignment-vs-sequentiality table.
func BenchmarkTable3Alignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Aligned) - 1
		imp := (r.Unaligned[last] - r.Aligned[last]) / r.Unaligned[last] * 100
		b.ReportMetric(imp, "p0.8-improvement-%")
	}
}

// BenchmarkTable4Macro regenerates the macro-benchmark table.
func BenchmarkTable4Macro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		for j, w := range r.Workloads {
			if w == "IOzone" {
				b.ReportMetric(r.ImprovementPct[j], "iozone-improvement-%")
			}
		}
	}
}

// BenchmarkTable5InformedCleaning regenerates the informed-cleaning table
// and reports its 5,000-transaction row.
func BenchmarkTable5InformedCleaning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RelPagesMoved[0], "rel-pages-moved")
		b.ReportMetric(r.RelCleanTime[0], "rel-clean-time")
	}
}

// BenchmarkFigure3PriorityCleaning regenerates the priority-aware sweep
// (and Table 6, which is derived from the same run).
func BenchmarkFigure3PriorityCleaning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ImprovementPct[2], "fg-improvement-50w-%")
	}
}

// ---- ablation benches: the design choices DESIGN.md calls out ----

// benchDevice builds a small interleaved device for ablations.
func benchDevice(b *testing.B, mutate func(*ssd.Config)) *core.SSD {
	b.Helper()
	cfg := ssd.Config{
		Elements:      8,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: 64},
		Overprovision: 0.10,
		Layout:        ssd.Interleaved,
		Scheduler:     sched.SWTF,
		CtrlOverhead:  10 * sim.Microsecond,
		GCLow:         0.05, GCCritical: 0.02,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return buildSSD(b, cfg)
}

// buildSSD builds a flash device from a raw config through core.Build.
func buildSSD(b *testing.B, cfg ssd.Config) *core.SSD {
	b.Helper()
	d, err := core.Build(core.Profile{Kind: core.KindSSD, SSD: cfg})
	if err != nil {
		b.Fatal(err)
	}
	return d.(*core.SSD)
}

// churn drives a device through skewed random overwrites and returns the
// aggregated wear spread and cleaning stats.
func churn(b *testing.B, d *core.SSD, seed int64) (spread int, moved int64) {
	b.Helper()
	if err := core.PreconditionFrac(d, 1<<20, 0.8); err != nil {
		b.Fatal(err)
	}
	space := int64(float64(d.LogicalBytes()) * 0.8)
	hot := space / 10
	rng := sim.NewRNG(seed)
	n := int(space / 4096 * 10)
	i := 0
	err := core.ClosedLoop(d, 4, func(int) (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		i++
		region := hot
		if rng.Bool(0.1) {
			region = space
		}
		return trace.Op{Kind: trace.Write, Offset: rng.Int63n(region/4096) * 4096, Size: 4096}, true
	})
	if err != nil {
		b.Fatal(err)
	}
	min, max := 1<<30, 0
	for _, el := range d.Raw.Elements() {
		w := el.Wear()
		if w.Min < min {
			min = w.Min
		}
		if w.Max > max {
			max = w.Max
		}
	}
	return max - min, d.Raw.GCStats().PagesMoved
}

// BenchmarkAblationWearLeveling compares wear spread with and without the
// dual-pool cold-data migration under a skewed workload.
func BenchmarkAblationWearLeveling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain := benchDevice(b, nil)
		spreadOff, _ := churn(b, plain, 7)
		aware := benchDevice(b, func(c *ssd.Config) { c.WearAware = true; c.WearDelta = 16 })
		spreadOn, _ := churn(b, aware, 7)
		b.ReportMetric(float64(spreadOff), "spread-greedy")
		b.ReportMetric(float64(spreadOn), "spread-wear-aware")
	}
}

// BenchmarkAblationOverprovision sweeps spare capacity and reports the
// cleaning relocation volume: more spare area, fewer pages moved.
func BenchmarkAblationOverprovision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var movedLow, movedHigh int64
		d := benchDevice(b, func(c *ssd.Config) { c.Overprovision = 0.07 })
		_, movedLow = churn(b, d, 9)
		d = benchDevice(b, func(c *ssd.Config) { c.Overprovision = 0.25 })
		_, movedHigh = churn(b, d, 9)
		b.ReportMetric(float64(movedLow), "moved-op7%")
		b.ReportMetric(float64(movedHigh), "moved-op25%")
	}
}

// BenchmarkAblationInformedFreeRatio measures informed cleaning's
// sensitivity to how much of the written data is freed.
func BenchmarkAblationInformedFreeRatio(b *testing.B) {
	run := func(freeFrac float64) int64 {
		d := benchDevice(b, func(c *ssd.Config) { c.Informed = true })
		if err := core.PreconditionFrac(d, 1<<20, 0.8); err != nil {
			b.Fatal(err)
		}
		space := int64(float64(d.LogicalBytes()) * 0.8)
		rng := sim.NewRNG(11)
		n := int(space / 4096 * 3)
		i := 0
		err := core.ClosedLoop(d, 2, func(int) (trace.Op, bool) {
			if i >= n {
				return trace.Op{}, false
			}
			i++
			off := rng.Int63n(space/4096) * 4096
			if rng.Bool(freeFrac) {
				return trace.Op{Kind: trace.Free, Offset: off, Size: 4096}, true
			}
			return trace.Op{Kind: trace.Write, Offset: off, Size: 4096}, true
		})
		if err != nil {
			b.Fatal(err)
		}
		return d.Raw.GCStats().PagesMoved
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(run(0.0)), "moved-free0%")
		b.ReportMetric(float64(run(0.3)), "moved-free30%")
	}
}

// BenchmarkAblationWriteBuffer shows the S3 observation: a write buffer
// masks single-write latency but not sustained random-write bandwidth.
func BenchmarkAblationWriteBuffer(b *testing.B) {
	run := func(buf int64) (latencyMs, mbps float64) {
		// Full-stripe layout: every write occupies the whole gang, so a
		// deeper drain queue cannot add parallelism — the regime where
		// the paper observed the cache was "ineffective".
		d := benchDevice(b, func(c *ssd.Config) {
			c.WriteBufferBytes = buf
			c.Layout = ssd.FullStripe
			c.StripeBytes = 32 << 10
		})
		if err := core.PreconditionFrac(d, 1<<20, 0.6); err != nil {
			b.Fatal(err)
		}
		// Single isolated write: latency.
		var resp sim.Time
		d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096},
			func(r sim.Time, _ error) { resp = r })
		d.Engine().Run()
		// Sustained random writes: bandwidth.
		bw, err := core.MeasureBandwidth(d, core.BWOptions{
			Kind: trace.Write, Pattern: core.Random,
			ReqBytes: 4096, TotalBytes: 8 << 20, Depth: 8, Seed: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		return resp.Millis(), bw
	}
	for i := 0; i < b.N; i++ {
		latNo, bwNo := run(0)
		latYes, bwYes := run(16 << 20)
		b.ReportMetric(latNo, "latency-ms-nobuf")
		b.ReportMetric(latYes, "latency-ms-buf")
		b.ReportMetric(bwNo, "MBps-nobuf")
		b.ReportMetric(bwYes, "MBps-buf")
	}
}

// BenchmarkAblationGCPolicy compares greedy vs cost-benefit victim
// selection on a hot/cold workload.
func BenchmarkAblationGCPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		greedy := benchDevice(b, nil)
		_, movedGreedy := churn(b, greedy, 13)
		cb := benchDevice(b, func(c *ssd.Config) { c.CostBenefit = true })
		_, movedCB := churn(b, cb, 13)
		b.ReportMetric(float64(movedGreedy), "moved-greedy")
		b.ReportMetric(float64(movedCB), "moved-costbenefit")
	}
}

// BenchmarkRunnerSerial and BenchmarkRunnerParallel run the same
// Table 2 through the experiment runner at one worker and at the
// GOMAXPROCS default; their ratio is the evaluation's fan-out speedup on
// this machine (1.0 on a single-core host).
func benchTable2(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(1, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunnerSerial(b *testing.B)   { benchTable2(b, 1) }
func BenchmarkRunnerParallel(b *testing.B) { benchTable2(b, runner.DefaultWorkers()) }

// BenchmarkOSDDeviceWritePath measures block writes traveling the object
// path (extent lookup + store bookkeeping) against the raw device.
func BenchmarkOSDDeviceWritePath(b *testing.B) {
	d, err := core.Build(core.Profile{Kind: core.KindOSD, SSD: ssd.Config{
		Elements:      8,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: 64},
		Overprovision: 0.10,
		Layout:        ssd.Interleaved,
		Scheduler:     sched.SWTF,
		CtrlOverhead:  10 * sim.Microsecond,
		GCLow:         0.05, GCCritical: 0.02,
	}})
	if err != nil {
		b.Fatal(err)
	}
	space := d.LogicalBytes()
	rng := sim.NewRNG(5)
	b.ResetTimer()
	i := 0
	err = core.ClosedLoop(d, 4, func(int) (trace.Op, bool) {
		if i >= b.N {
			return trace.Op{}, false
		}
		i++
		return trace.Op{Kind: trace.Write, Offset: rng.Int63n(space/4096) * 4096, Size: 4096}, true
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineThroughput measures the raw event engine scheduling a
// plain closure through a one-line adapter onto the (call, arg) form;
// the pointer-payload path is BenchmarkEngineChurn.
func BenchmarkEngineThroughput(b *testing.B) {
	eng := sim.NewEngine()
	run := func(a any) { a.(func())() }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Call(1, run, func() {})
		eng.Step()
	}
}

// BenchmarkEngineSchedule measures one schedule+fire cycle against a
// deep heap: 4096 events stay pending, so every push sifts through a
// realistically tall four-ary tree. The pooled Call path must not
// allocate in steady state.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := sim.NewEngine()
	nop := func(any) {}
	rng := sim.NewRNG(1)
	const depth = 4096
	for i := 0; i < depth; i++ {
		eng.Call(sim.Time(rng.Intn(1000)+1), nop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Call(sim.Time(rng.Intn(1000)+1), nop, nil)
		eng.Step()
	}
}

// churnState carries a self-rescheduling timer for BenchmarkEngineChurn;
// the pointer rides through the event's any slot without boxing.
type churnState struct {
	eng  *sim.Engine
	left int
}

// churnEvent fires and reschedules itself until the countdown drains —
// the steady-state motion of every device completion in a simulation.
func churnEvent(a any) {
	s := a.(*churnState)
	if s.left > 0 {
		s.left--
		s.eng.Call(1, churnEvent, s)
	}
}

// BenchmarkEngineChurn is the zero-allocation contract of the pooled
// event engine: 256 concurrent self-rescheduling timers (a gang of
// in-flight requests) burn through b.N events total. CI gates this
// benchmark at exactly 0 allocs/op — the event heap is flat event
// values, the callbacks are package functions, and the payloads are
// pointers, so nothing escapes per event.
func BenchmarkEngineChurn(b *testing.B) {
	eng := sim.NewEngine()
	const timers = 256
	share := b.N / timers
	states := make([]*churnState, timers)
	for i := range states {
		states[i] = &churnState{eng: eng, left: share}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, s := range states {
		eng.Call(1, churnEvent, s)
	}
	eng.Run()
}

// BenchmarkFTLWritePath measures the per-page write cost of the FTL under
// steady-state cleaning.
func BenchmarkFTLWritePath(b *testing.B) {
	el, err := ftl.NewElement(ftl.Config{
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: 256},
		Timing:        flash.TimingFor(flash.SLC),
		Overprovision: 0.10,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := el.LogicalPages()
	for lpn := 0; lpn < n; lpn++ {
		if _, err := el.WritePages(lpn, 1); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := el.WritePages(rng.Intn(n), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceOpen measures building a device from its profile: the
// set-up every cold simd job and every Table 5 replay pays before its
// first op. A fresh FTL is valid as allocated (its maps read zero as
// unmapped), so an open costs its allocations and no per-page work, and
// allocs/op does not grow with the page count.
func BenchmarkDeviceOpen(b *testing.B) {
	table5 := table5SSD()
	for _, tc := range []struct {
		name, profile string
		opts          []core.Option
	}{
		{"ssd", "ssd", nil},
		{"osd", "osd", nil},
		{"table5", "ssd", []core.Option{core.WithSSD(table5), core.WithInformed(true)}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Open(tc.profile, tc.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// table5SSD is the 4-element SWTF SSD that Table 5 and perfbench's
// postmark-backlog replay Postmark on.
func table5SSD() ssd.Config {
	return ssd.Config{
		Elements:      4,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: 64},
		Overprovision: 0.12,
		Layout:        ssd.Interleaved,
		Scheduler:     sched.SWTF,
		CtrlOverhead:  10 * sim.Microsecond,
		GCLow:         0.05, GCCritical: 0.02,
	}
}

// BenchmarkStreamBuild measures building a workload stream, the set-up
// every replay pays before its first op: synthetic is the generator of
// perfbench's randrw-aligned (30% reads over 60% of the base ssd), and
// postmark is Table 5's Postmark on its SSD. Nothing is pulled, so the
// cost is seeding the generator and sizing the stream's state; the
// Postmark file table grows only as files are created.
func BenchmarkStreamBuild(b *testing.B) {
	base, err := core.Open("ssd")
	if err != nil {
		b.Fatal(err)
	}
	table5, err := core.Open("ssd", core.WithSSD(table5SSD()))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		build func(seed int64) (trace.Stream, error)
	}{
		{"synthetic", func(seed int64) (trace.Stream, error) {
			return workload.NewStream("synthetic", workload.GenParams{
				Ops:                1_000_000,
				CapacityBytes:      int64(float64(base.LogicalBytes())*0.6) / 4096 * 4096,
				ReadFrac:           0.3,
				SeqProb:            0.5,
				MeanInterarrivalUs: 200,
				Seed:               seed,
			})
		}},
		{"postmark", func(seed int64) (trace.Stream, error) {
			return workload.Postmark(workload.PostmarkConfig{
				Transactions:     5000,
				InitialFiles:     1150,
				FileSizeMin:      4 << 10,
				FileSizeMax:      64 << 10,
				CapacityBytes:    table5.LogicalBytes(),
				MeanInterarrival: 200 * sim.Microsecond,
				Seed:             seed,
			})
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.build(int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrecondition measures filling a freshly opened device in
// 1 MiB writes, the set-up every preconditioned run pays before its
// first op: the base ssd to 60% (the set-up of perfbench's
// randrw-aligned) and the full-stripe S2slc in full. Each request is one
// run per element, so the cost follows requests and segments, not
// pages. Opening the device is outside the timer.
func BenchmarkPrecondition(b *testing.B) {
	for _, tc := range []struct {
		name string
		frac float64
	}{
		{"ssd", 0.6},
		{"S2slc", 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, err := core.Open(tc.name)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := core.PreconditionFrac(d, 1<<20, tc.frac); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeviceRandomWrites measures end-to-end simulated random writes
// per wall-clock second (events through the full device stack).
func BenchmarkDeviceRandomWrites(b *testing.B) {
	d := benchDevice(b, nil)
	if err := core.PreconditionFrac(d, 1<<20, 0.6); err != nil {
		b.Fatal(err)
	}
	space := int64(float64(d.LogicalBytes()) * 0.6)
	rng := sim.NewRNG(5)
	b.ResetTimer()
	i := 0
	err := core.ClosedLoop(d, 4, func(int) (trace.Op, bool) {
		if i >= b.N {
			return trace.Op{}, false
		}
		i++
		return trace.Op{Kind: trace.Write, Offset: rng.Int63n(space/4096) * 4096, Size: 4096}, true
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCleanTrigger runs the BenchmarkDeviceRandomWrites shape at two
// gang widths. The cleaning hooks run on every dispatch round and visit
// only elements below the low watermark, so the per-write cost should
// grow far slower than the element count.
func BenchmarkCleanTrigger(b *testing.B) {
	for _, elems := range []int{8, 64} {
		b.Run(fmt.Sprintf("elements=%d", elems), func(b *testing.B) {
			d := benchDevice(b, func(c *ssd.Config) { c.Elements = elems })
			if err := core.PreconditionFrac(d, 1<<20, 0.6); err != nil {
				b.Fatal(err)
			}
			space := int64(float64(d.LogicalBytes()) * 0.6)
			rng := sim.NewRNG(5)
			b.ReportAllocs()
			b.ResetTimer()
			i := 0
			err := core.ClosedLoop(d, 4, func(int) (trace.Op, bool) {
				if i >= b.N {
					return trace.Op{}, false
				}
				i++
				return trace.Op{Kind: trace.Write, Offset: rng.Int63n(space/4096) * 4096, Size: 4096}, true
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAlignerThroughput measures the merge/align pass itself over
// a 10,000-op trace per iteration. The pass reuses its output slice, so
// an iteration allocates a fixed handful of records (the stream, the
// aligner, the output slice growing to its largest refill) however long
// the trace is; CI gates that constant.
func BenchmarkAlignerThroughput(b *testing.B) {
	stream, err := workload.Synthetic(workload.SyntheticConfig{
		Ops: 10000, AddressSpace: 1 << 28, ReqSize: 4096, SeqProb: 0.6, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	var ops []trace.Op
	for op, ok := stream.Next(); ok; op, ok = stream.Next() {
		ops = append(ops, op)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := trace.AlignStream(trace.FromSlice(ops), 32<<10, trace.AlignOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if n := count(s); n == 0 {
			b.Fatal("aligned trace is empty")
		}
	}
}

// count drains a stream and returns how many ops it yielded.
func count(s trace.Stream) int {
	n := 0
	for _, ok := s.Next(); ok; _, ok = s.Next() {
		n++
	}
	return n
}

// BenchmarkDriveStream1M drives a one-million-op synthetic stream
// through Device.Drive on the base SSD profile. The point is the memory
// shape, not the speed: b.ReportAllocs shows a fixed setup cost per run
// (~235 allocations for the whole 1M-op run — device, generator, drive
// loop), not per op, and the benchmark fails outright if the
// event heap ever holds more than a bounded number of pending events —
// a Drive that materialized the stream would schedule a million
// arrivals up front. O(1) memory in the stream's length, where the
// slice-era Play was O(n).
func BenchmarkDriveStream1M(b *testing.B) {
	const million = 1_000_000
	for i := 0; i < b.N; i++ {
		d, err := core.Open("ssd")
		if err != nil {
			b.Fatal(err)
		}
		// Reads over a preconditioned region at a gentle open-loop rate:
		// the device keeps up, so queues (and memory) stay flat.
		if err := core.PreconditionFrac(d, 1<<20, 0.5); err != nil {
			b.Fatal(err)
		}
		space := int64(float64(d.LogicalBytes()) * 0.5)
		stream, err := workload.Synthetic(workload.SyntheticConfig{
			Ops:            million,
			AddressSpace:   space,
			ReadFrac:       1.0,
			ReqSize:        4096,
			InterarrivalLo: 90 * sim.Microsecond,
			InterarrivalHi: 110 * sim.Microsecond,
			Seed:           3,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Sample the event heap on every pull: the O(1) guard.
		maxPending := 0
		probed := trace.Func(func() (trace.Op, bool) {
			if p := d.Engine().Pending(); p > maxPending {
				maxPending = p
			}
			return stream.Next()
		})
		b.ReportAllocs()
		if err := d.Drive(trace.Shift(probed, d.Engine().Now())); err != nil {
			b.Fatal(err)
		}
		if got := d.Metrics().Completed; got < million {
			b.Fatalf("completed %d of %d", got, million)
		}
		if maxPending > 1024 {
			b.Fatalf("event heap peaked at %d pending events — the stream is being materialized", maxPending)
		}
		b.ReportMetric(float64(maxPending), "max-pending-events")
	}
}

// ---- dispatch-path benchmarks: the indexed scheduler vs the scan ----

// dispatchPayload stands in for the ssd request a real queue carries:
// the caller's record with the queue node embedded in it.
type dispatchPayload struct {
	qn   sched.Node[dispatchPayload]
	elem int
}

// BenchmarkDispatchSWTF measures one steady-state SWTF dispatch decision
// on the indexed sched.Queue — pop the winner, mark its element busy,
// push a replacement — at fixed pending depths. A decision scans the
// queued element-set classes, here 64 single-element ones, against the
// busy bitset, so the depth barely moves the cost, and the pick path
// must not allocate. This is the widest shape the scan meets: every
// decision tests 64 classes and, with 1-tick horizons, rebuilds the
// 64-element busy bitset.
func BenchmarkDispatchSWTF(b *testing.B) {
	benchDispatch(b, nil)
}

// BenchmarkDispatchSWTFTenants is BenchmarkDispatchSWTF with the
// weighted fair-share layer engaged: four tenant classes at unequal
// weights, every push tagged and costed. The DRR pick path must hold
// the same contract as the single-tenant one — no allocations at any
// depth — so tenancy is free for runs that don't use it and O(tenants)
// for runs that do.
func BenchmarkDispatchSWTFTenants(b *testing.B) {
	benchDispatch(b, []float64{1, 4, 2, 8})
}

// benchDispatch is the shared body of the two single-element dispatch
// benchmarks: 64 elements, one request per element in rotation, and
// 1-tick horizons. With weights, tenant t+1 gets weights[t] and pushes
// rotate over the tenants, each request costing 4 KiB.
func benchDispatch(b *testing.B, weights []float64) {
	for _, depth := range []int{1024, 16384, 65536} {
		name := map[int]string{1024: "1k", 16384: "16k", 65536: "64k"}[depth]
		b.Run(name, func(b *testing.B) {
			const elements = 64
			q := sched.NewQueue(sched.SWTF, elements, func(*dispatchPayload) int64 { return 4096 })
			for t, w := range weights {
				q.SetTenantWeight(uint8(t+1), w)
			}
			tenant := func(i int) uint8 {
				if len(weights) == 0 {
					return 0
				}
				return uint8(1 + i%len(weights))
			}
			elems := make([][]int, elements)
			for e := 0; e < elements; e++ {
				elems[e] = []int{e}
			}
			reqs := make([]dispatchPayload, depth)
			for i := range reqs {
				r := &reqs[i]
				r.elem = i % elements
				q.Push(&r.qn, r, elems[r.elem], tenant(i))
			}
			now := sim.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, ok := q.Pop(now)
				if !ok {
					b.Fatal("steady-state pop failed")
				}
				q.SetBusy(r.elem, now+1)
				r.elem = i % elements
				q.Push(&r.qn, r, elems[r.elem], tenant(i))
				now++
			}
		})
	}
}

// BenchmarkDispatchSWTFBacklog measures SWTF dispatch in the shape of a
// deep postmark backlog on the 4-element interleaved gang: every request
// covers a contiguous (wrapping) run of elements, as a 4–64 KiB file
// access striped page by page does, and service takes many ticks, so
// most of the backlog waits on busy elements. Each iteration dispatches
// one request — jumping the clock to the next busy horizon when nothing
// is ready — and pushes a replacement. Requests are grouped by element
// set and a decision scans the sets, at most 15 here, however deep the
// backlog is: the cost must stay flat from 1k to 16k (CI gates 16k at
// most 3x 1k) and the cycle must not allocate.
func BenchmarkDispatchSWTFBacklog(b *testing.B) {
	const elements = 4
	// sets[i] is the element run of the i-th access: a start page and a
	// length of 1..16 pages, as drawn for a 4-64 KiB access.
	rng := sim.NewRNG(14)
	sets := make([][]int, 4096)
	for i := range sets {
		start, pages := rng.Intn(elements), 1+rng.Intn(16)
		for j := 0; j < min(pages, elements); j++ {
			sets[i] = append(sets[i], (start+j)%elements)
		}
	}
	for _, depth := range []int{1024, 16384} {
		name := map[int]string{1024: "1k", 16384: "16k"}[depth]
		b.Run(name, func(b *testing.B) {
			q := sched.NewQueue[dispatchPayload](sched.SWTF, elements, nil)
			reqs := make([]dispatchPayload, depth)
			next := 0
			push := func(r *dispatchPayload) {
				r.elem = next % len(sets)
				next++
				q.Push(&r.qn, r, sets[r.elem], 0)
			}
			for i := range reqs {
				push(&reqs[i])
			}
			now := sim.Time(0)
			cycle := func() {
				r, ok := q.Pop(now)
				for !ok {
					wake := sim.Time(math.MaxInt64)
					for e := 0; e < elements; e++ {
						if t := q.Busy(e); t > now && t < wake {
							wake = t
						}
					}
					now = wake
					r, ok = q.Pop(now)
				}
				for _, e := range sets[r.elem] {
					q.SetBusy(e, now+sim.Time(20+r.elem%40))
				}
				push(r)
			}
			// Warm up until the live lists reach their steady capacity.
			for i := 0; i < 2*depth; i++ {
				cycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}

// BenchmarkDispatchSWTFScan replays the pre-refactor dispatch machinery
// at the same depths: rebuild the entries slice (the per-pick allocation
// the old device paid), scan it with sched.Pick, and compact the pending
// slice by index. Its ratio to BenchmarkDispatchSWTF is the refactor's
// speedup; the acceptance floor is 10x at 64k.
func BenchmarkDispatchSWTFScan(b *testing.B) {
	for _, depth := range []int{1024, 16384, 65536} {
		name := map[int]string{1024: "1k", 16384: "16k", 65536: "64k"}[depth]
		b.Run(name, func(b *testing.B) {
			const elements = 64
			busy := make([]sim.Time, elements)
			pending := make([]*sched.Entry, 0, depth)
			seq := uint64(0)
			for i := 0; i < depth; i++ {
				seq++
				pending = append(pending, &sched.Entry{Elems: []int{i % elements}, Seq: seq})
			}
			now := sim.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The scan-era device copied its pending jobs into a fresh
				// entries slice on every pick.
				entries := make([]*sched.Entry, len(pending))
				copy(entries, pending)
				idx := sched.Pick(sched.SWTF, entries, busy, now)
				if idx < 0 {
					b.Fatal("steady-state pick failed")
				}
				// Elements stay idle so every pick dispatches, matching the
				// indexed benchmark's steady state.
				pending = append(pending[:idx], pending[idx+1:]...)
				seq++
				pending = append(pending, &sched.Entry{Elems: []int{i % elements}, Seq: seq})
				now++
			}
		})
	}
}

// BenchmarkExtensionSchemes regenerates the FTL-scheme comparison.
func BenchmarkExtensionSchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Schemes(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RandWrite[0], "page-randwrite-MBps")
		b.ReportMetric(r.RandWrite[2], "block-randwrite-MBps")
	}
}

// BenchmarkExtensionLifetime regenerates the endurance comparison.
func BenchmarkExtensionLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Lifetime(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.HostMB[0], "greedy-hostMB")
		b.ReportMetric(r.HostMB[1], "leveled-hostMB")
	}
}
