package experiments

import (
	"ossd/internal/core"
	"ossd/internal/flash"
	"ossd/internal/runner"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// LifetimeResult is an extension experiment quantifying §3.5: flash wears
// out, and how the device manages blocks decides how much host data fits
// into the media's erase budget. It drives skewed random writes into
// devices with a tiny per-block erase budget until the first block dies,
// and reports the host volume each configuration survived.
type LifetimeResult struct {
	Configs    []string
	HostMB     []float64 // host data written before first wear-out
	WearSpread []int     // max-min erase count at death
}

// ID implements Result.
func (LifetimeResult) ID() string { return "lifetime" }

func (r LifetimeResult) String() string {
	t := stats.NewTable("Extension: lifetime under skewed writes (erase budget 64 cycles/block)",
		"Config", "HostMB-until-wearout", "WearSpread")
	for i := range r.Configs {
		t.AddRow(r.Configs[i], r.HostMB[i], r.WearSpread[i])
	}
	t.AddNote("wear-leveling converts the media's erase budget into host capacity;")
	t.AddNote("SLC vs MLC shows the 10x endurance gap the paper cites (100K vs 10K cycles).")
	return t.String()
}

// lifetimeDevice builds a small device with an artificially small erase
// budget so wear-out happens in simulable time.
func lifetimeDevice(budget int, wearAware bool, mlc bool) (*core.SSD, error) {
	cfg := ssd.Config{
		Elements:      4,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 32, BlocksPerPackage: 64},
		EraseBudget:   budget,
		Overprovision: 0.12,
		Layout:        ssd.Interleaved,
		Scheduler:     sched.SWTF,
		CtrlOverhead:  5 * sim.Microsecond,
		GCLow:         0.06, GCCritical: 0.03,
		WearAware: wearAware,
		WearDelta: 8,
	}
	if mlc {
		cfg.Timing = flash.TimingFor(flash.MLC)
	}
	d, err := core.Open("ssd", core.WithSSD(cfg))
	if err != nil {
		return nil, err
	}
	return d.(*core.SSD), nil
}

// writeUntilWearOut drives 90/10-skewed random writes and returns host MB
// absorbed before the first wear-out error.
func writeUntilWearOut(d *core.SSD, seed int64) (float64, int, error) {
	if err := core.PreconditionFrac(d, 1<<20, 0.8); err != nil {
		return 0, 0, err
	}
	space := int64(float64(d.LogicalBytes()) * 0.8)
	hot := space / 10
	rng := sim.NewRNG(seed)
	var hostBytes int64
	dead := false
	var issue func()
	eng := d.Engine()
	issue = func() {
		if dead {
			return
		}
		region := hot
		if rng.Bool(0.1) {
			region = space
		}
		op := trace.Op{Kind: trace.Write, Offset: rng.Int63n(region/4096) * 4096, Size: 4096}
		err := d.Raw.Submit(op, func(_ sim.Time, err error) {
			if err != nil {
				dead = true
				return
			}
			hostBytes += 4096
			issue()
		})
		if err != nil {
			dead = true
		}
	}
	for i := 0; i < 4; i++ {
		issue()
	}
	eng.Run()
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
	return float64(hostBytes) / 1e6, max - min, nil
}

// lifetimePoint is one configuration's run-to-wear-out outcome.
type lifetimePoint struct {
	mb     float64
	spread int
}

// Lifetime runs the endurance comparison, one spec per configuration.
// workers caps the pool (0 = runner default).
func Lifetime(seed int64, workers int) (LifetimeResult, error) {
	var res LifetimeResult
	const budget = 64
	cases := []struct {
		name      string
		wearAware bool
		mlc       bool
		budget    int
	}{
		{"SLC greedy-only", false, false, budget},
		{"SLC wear-leveled", true, false, budget},
		{"MLC wear-leveled (1/10 budget)", true, true, budget / 10},
	}
	specs := make([]runner.Spec[lifetimePoint], len(cases))
	for i, c := range cases {
		specs[i] = runner.Spec[lifetimePoint]{
			Name: "lifetime/" + c.name,
			Seed: seed,
			Run: func() (lifetimePoint, error) {
				d, err := lifetimeDevice(c.budget, c.wearAware, c.mlc)
				if err != nil {
					return lifetimePoint{}, err
				}
				mb, spread, err := writeUntilWearOut(d, seed)
				return lifetimePoint{mb: mb, spread: spread}, err
			},
		}
	}
	pts, err := runner.Run(specs, runner.Options{Workers: workers})
	if err != nil {
		return res, err
	}
	for i, c := range cases {
		res.Configs = append(res.Configs, c.name)
		res.HostMB = append(res.HostMB, pts[i].mb)
		res.WearSpread = append(res.WearSpread, pts[i].spread)
	}
	return res, nil
}
