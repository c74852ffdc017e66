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

// Figure3Result reproduces Figure 3 and Table 6: foreground (priority)
// and background response times under priority-aware vs. priority-
// agnostic cleaning, across write percentages.
type Figure3Result struct {
	WritePcts []int
	// Mean response times in ms per write percentage.
	FgAgnostic, BgAgnostic []float64
	FgAware, BgAware       []float64
	// ImprovementPct is Table 6: foreground improvement from awareness.
	ImprovementPct []float64
}

// ID implements Result.
func (Figure3Result) ID() string { return "figure3" }

func (r Figure3Result) String() string {
	t := stats.NewTable("Figure 3: Priority-Aware Cleaning (mean response, ms)",
		"Writes(%)", "Fg:Agnostic", "Fg:Aware", "Bg:Agnostic", "Bg:Aware")
	for i, w := range r.WritePcts {
		t.AddRow(w, r.FgAgnostic[i], r.FgAware[i], r.BgAgnostic[i], r.BgAware[i])
	}
	t6 := stats.NewTable("Table 6: Response Time Improvement From Priority-Aware Cleaning",
		"Writes(%)", "Improvement(%)")
	for i, w := range r.WritePcts {
		t6.AddRow(w, r.ImprovementPct[i])
	}
	t6.AddNote("paper: ~0%% at 20%% writes (little cleaning), ~10%% at 40-80%%")
	return t.String() + "\n" + t6.String()
}

// figure3Device builds the scaled 32 GB-class device with the paper's
// watermarks (low 5%, critical 2%).
func figure3Device(aware bool) (*core.SSD, error) {
	d, err := core.Open("ssd",
		core.WithSSD(ssd.Config{
			Elements:      16,
			Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: 96},
			Overprovision: 0.10,
			Layout:        ssd.Interleaved,
			Scheduler:     sched.SWTF,
			CtrlOverhead:  10 * sim.Microsecond,
			GCLow:         0.05, GCCritical: 0.02,
		}),
		core.WithPriorityAware(aware),
	)
	if err != nil {
		return nil, err
	}
	return d.(*core.SSD), nil
}

// figure3Point is one (write percentage, policy) simulation's output.
type figure3Point struct {
	fg, bg float64
}

// figure3WritePcts are the sweep points: the paper's write percentages.
var figure3WritePcts = []int{20, 40, 50, 60, 80}

// Figure3 runs both cleaning policies at each write percentage, one spec
// per (write percentage, policy) pair. Each point drives 120,000
// requests whose inter-arrival times are uniform in [0, 0.1 ms] and 10%
// of which are priority, per the paper.
func Figure3(seed int64, workers int) (Figure3Result, error) {
	var res Figure3Result
	run := func(wp int, aware bool) (figure3Point, error) {
		var pt figure3Point
		d, err := figure3Device(aware)
		if err != nil {
			return pt, err
		}
		// Two sequential passes over 75% of a 16-element device: the
		// first maps the region, the second drains the free pool to
		// the 5% watermark, so the measurement starts in the steady
		// state where cleaning interferes with foreground traffic
		// (the regime Figure 3 studies) while staying stable.
		for pass := 0; pass < 2; pass++ {
			if err := core.PreconditionFrac(d, 1<<20, 0.75); err != nil {
				return pt, err
			}
		}
		stream, err := workload.Synthetic(workload.SyntheticConfig{
			Ops:            120000,
			AddressSpace:   int64(float64(d.LogicalBytes()) * 0.75),
			ReadFrac:       1 - float64(wp)/100,
			ReqSize:        4096,
			InterarrivalLo: 0,
			InterarrivalHi: 100 * sim.Microsecond,
			PriorityFrac:   0.10,
			Seed:           seed + int64(wp),
		})
		if err != nil {
			return pt, err
		}
		if err := d.Drive(trace.Shift(stream, d.Engine().Now())); err != nil {
			return pt, err
		}
		// The background mean includes the preconditioning writes: they
		// are non-priority, but few and sequential next to the trace.
		m := d.Raw.Metrics()
		return figure3Point{fg: m.PriResp.Mean(), bg: m.BgResp.Mean()}, nil
	}
	var specs []runner.Spec[figure3Point]
	for _, wp := range figure3WritePcts {
		for _, aware := range []bool{false, true} {
			specs = append(specs, runner.Spec[figure3Point]{
				Name: fmt.Sprintf("figure3/w%d/aware=%v", wp, aware),
				Seed: seed,
				Run:  func() (figure3Point, error) { return run(wp, aware) },
			})
		}
	}
	pts, err := runner.Run(specs, runner.Options{Workers: workers})
	if err != nil {
		return res, err
	}
	for i, wp := range figure3WritePcts {
		agn, aw := pts[i*2], pts[i*2+1]
		res.WritePcts = append(res.WritePcts, wp)
		res.FgAgnostic = append(res.FgAgnostic, agn.fg)
		res.BgAgnostic = append(res.BgAgnostic, agn.bg)
		res.FgAware = append(res.FgAware, aw.fg)
		res.BgAware = append(res.BgAware, aw.bg)
		res.ImprovementPct = append(res.ImprovementPct, stats.Improvement(agn.fg, aw.fg))
	}
	return res, nil
}
