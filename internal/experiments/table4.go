package experiments

import (
	"ossd/internal/runner"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
	"ossd/internal/workload"
)

// Table4Result reproduces Table 4: response-time improvement from
// stripe-aligned writes on the four macro workloads.
type Table4Result struct {
	Workloads      []string
	UnalignedMs    []float64
	AlignedMs      []float64
	ImprovementPct []float64
}

// ID implements Result.
func (Table4Result) ID() string { return "table4" }

func (r Table4Result) String() string {
	t := stats.NewTable("Table 4: Macro Benchmarks with Stripe-aligned Writes",
		"Workload", "Unaligned(ms)", "Aligned(ms)", "Improvement(%)")
	for i, w := range r.Workloads {
		t.AddRow(w, r.UnalignedMs[i], r.AlignedMs[i], r.ImprovementPct[i])
	}
	t.AddNote("paper: Postmark 1.15%%, TPCC 3.08%%, Exchange 4.89%%, IOzone 36.54%%")
	return t.String()
}

// Table4 generates each macro trace, replays it unaligned and aligned on
// fresh preconditioned copies of the Table 3 device, and reports mean
// write response improvement.
func Table4(seed int64, workers int) (Table4Result, error) {
	var res Table4Result
	probe, err := table3Device()
	if err != nil {
		return res, err
	}
	space := int64(float64(probe.LogicalBytes()) * 0.6)
	gens := []struct {
		name string
		gen  func() (trace.Stream, error)
	}{
		{"Postmark", func() (trace.Stream, error) {
			return workload.Postmark(workload.PostmarkConfig{
				Transactions:     12000,
				InitialFiles:     300,
				CapacityBytes:    space / 2,
				MeanInterarrival: 1500 * sim.Microsecond,
				Seed:             seed + 1,
			})
		}},
		{"TPCC", func() (trace.Stream, error) {
			return workload.TPCC(workload.OLTPConfig{
				Ops:              15000,
				CapacityBytes:    space,
				LogFrac:          0.05,
				MeanInterarrival: 1500 * sim.Microsecond,
				Seed:             seed + 2,
			})
		}},
		{"Exchange", func() (trace.Stream, error) {
			return workload.Exchange(workload.ExchangeConfig{
				Ops:              15000,
				CapacityBytes:    space,
				BurstFrac:        0.01,
				MeanInterarrival: 1500 * sim.Microsecond,
				Seed:             seed + 3,
			})
		}},
		{"IOzone", func() (trace.Stream, error) {
			return workload.IOzone(workload.IOzoneConfig{
				FileBytes:        int64(float64(space) * 0.6),
				RecordBytes:      128 << 10,
				MeanInterarrival: 3500 * sim.Microsecond,
				Seed:             seed + 4,
			})
		}},
	}
	var specs []runner.Spec[float64]
	for _, g := range gens {
		// Streams are single-use: each spec regenerates its workload from
		// the seed, and the aligned variant wraps it in the streaming
		// merge-and-align pass. The merging scheme models a real write
		// buffer: a short hold window and a read barrier, so merging
		// exploits only genuine temporal contiguity.
		gen := g.gen
		alignedGen := func() (trace.Stream, error) {
			s, err := gen()
			if err != nil {
				return nil, err
			}
			return trace.AlignStream(s, 32<<10, trace.AlignOptions{
				MaxGap:      6 * sim.Millisecond,
				ReadBarrier: true,
			})
		}
		for _, v := range []struct {
			label string
			mk    func() (trace.Stream, error)
		}{{"unaligned", gen}, {"aligned", alignedGen}} {
			specs = append(specs, runner.Spec[float64]{
				Name:     g.name + "/" + v.label,
				Workload: g.name,
				Seed:     seed,
				Run:      func() (float64, error) { return table3Run(v.mk) },
			})
		}
	}
	means, err := runner.Run(specs, runner.Options{Workers: workers})
	if err != nil {
		return res, err
	}
	for i, g := range gens {
		u, a := means[i*2], means[i*2+1]
		res.Workloads = append(res.Workloads, g.name)
		res.UnalignedMs = append(res.UnalignedMs, u)
		res.AlignedMs = append(res.AlignedMs, a)
		res.ImprovementPct = append(res.ImprovementPct, stats.Improvement(u, a))
	}
	return res, nil
}
