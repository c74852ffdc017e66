package experiments

import (
	"fmt"

	"ossd/internal/core"
	"ossd/internal/flash"
	"ossd/internal/runner"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/stats"
	"ossd/internal/trace"
	"ossd/internal/workload"
)

// Table3Result reproduces Table 3: average response time of 4 KB writes,
// unaligned vs. merged-and-aligned, across degrees of sequentiality, on
// the paper's configuration (one gang of eight packages, 32 KB logical
// page spanning all of them).
type Table3Result struct {
	SeqProbs  []float64
	Unaligned []float64 // mean response ms
	Aligned   []float64
}

// ID implements Result.
func (Table3Result) ID() string { return "table3" }

func (r Table3Result) String() string {
	t := stats.NewTable("Table 3: Improved Response Time with Write Alignment (ms)",
		"Scheme", "p=0", "p=0.2", "p=0.4", "p=0.6", "p=0.8")
	row := func(name string, xs []float64) {
		cells := []any{name}
		for _, x := range xs {
			cells = append(cells, x)
		}
		t.AddRow(cells...)
	}
	row("Unaligned", r.Unaligned)
	row("Aligned", r.Aligned)
	t.AddNote("unaligned is flat (every 4 KB write pays a full-stripe RMW);")
	t.AddNote("aligned improves with sequentiality as runs merge into full stripes.")
	return t.String()
}

// table3Device builds the scaled Table 3 configuration: 8 packages,
// 32 KB logical page striped across the gang.
func table3Device() (*core.SSD, error) {
	d, err := core.Open("ssd", core.WithSSD(ssd.Config{
		Elements:      8,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: 128},
		Overprovision: 0.10,
		Layout:        ssd.FullStripe,
		Scheduler:     sched.SWTF,
		StripeBytes:   32 << 10,
		CtrlOverhead:  20 * sim.Microsecond,
		GCLow:         0.05, GCCritical: 0.02,
	}))
	if err != nil {
		return nil, err
	}
	return d.(*core.SSD), nil
}

// table3Run replays one write stream on a fresh 60%-preconditioned
// Table 3 device and returns the mean write response over the replayed
// window only (moderate utilization, so cleaning cost reflects a working
// device, not a pathological full one). Tables 3 and 4 both measure
// through it. mkStream builds the stream after preconditioning, so the
// whole pipeline — generation, alignment, replay — runs at constant
// memory.
func table3Run(mkStream func() (trace.Stream, error)) (float64, error) {
	d, err := table3Device()
	if err != nil {
		return 0, err
	}
	if err := core.PreconditionFrac(d, 1<<20, 0.6); err != nil {
		return 0, err
	}
	stream, err := mkStream()
	if err != nil {
		return 0, err
	}
	// Measure only the trace's writes: snapshot before.
	w := d.Raw.Metrics().WriteResp
	beforeN, beforeTotal := w.N(), float64(w.Mean()*float64(w.N()))
	if err := d.Drive(trace.Shift(stream, d.Engine().Now())); err != nil {
		return 0, err
	}
	w = d.Raw.Metrics().WriteResp
	n := w.N() - beforeN
	if n == 0 {
		return 0, nil
	}
	return (float64(w.Mean()*float64(w.N())) - beforeTotal) / float64(n), nil
}

// Table3 runs both schemes at each sequentiality: 12,000 writes per
// point at a mean inter-arrival time of 900 us — high utilization, the
// regime where alignment shows its full effect without queue blow-up.
// Each spec regenerates its own workload stream from the seed (streams
// are single-use), so the two replays of a point stay byte-equal without
// sharing a slice.
func Table3(seed int64, workers int) (Table3Result, error) {
	res := Table3Result{SeqProbs: []float64{0, 0.2, 0.4, 0.6, 0.8}}
	probe, err := table3Device()
	if err != nil {
		return res, err
	}
	space := int64(float64(probe.LogicalBytes()) * 0.6)
	var specs []runner.Spec[float64]
	for _, p := range res.SeqProbs {
		cfg := workload.SyntheticConfig{
			Ops:            12000,
			AddressSpace:   space,
			ReadFrac:       0,
			SeqProb:        p,
			ReqSize:        4096,
			InterarrivalLo: 0,
			InterarrivalHi: 2 * 900 * sim.Microsecond,
			Seed:           seed + int64(p*100),
		}
		for _, v := range []struct {
			label string
			mk    func() (trace.Stream, error)
		}{
			{"unaligned", func() (trace.Stream, error) { return workload.Synthetic(cfg) }},
			{"aligned", func() (trace.Stream, error) {
				s, err := workload.Synthetic(cfg)
				if err != nil {
					return nil, err
				}
				return trace.AlignStream(s, 32<<10, trace.AlignOptions{})
			}},
		} {
			specs = append(specs, runner.Spec[float64]{
				Name:     fmt.Sprintf("table3/p%.1f/%s", p, v.label),
				Workload: v.label,
				Seed:     seed,
				Run:      func() (float64, error) { return table3Run(v.mk) },
			})
		}
	}
	means, err := runner.Run(specs, runner.Options{Workers: workers})
	if err != nil {
		return res, err
	}
	for i := range res.SeqProbs {
		res.Unaligned = append(res.Unaligned, means[i*2])
		res.Aligned = append(res.Aligned, means[i*2+1])
	}
	return res, nil
}
