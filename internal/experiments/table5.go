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
	"ossd/internal/workload"
)

// Table5Result reproduces Table 5: informed cleaning with free-page
// information. For each Postmark transaction count it reports pages
// moved and cleaning time of the informed FTL relative to the default
// (free-ignorant) FTL, plus the default's absolute numbers.
type Table5Result struct {
	Transactions []int
	// RelPagesMoved and RelCleanTime are informed/default ratios.
	RelPagesMoved, RelCleanTime []float64
	// DefaultPagesMoved and DefaultCleanSec are the baseline absolutes.
	DefaultPagesMoved  []int64
	DefaultCleanSec    []float64
	InformedPagesMoved []int64
	InformedCleanSec   []float64
}

// ID implements Result.
func (Table5Result) ID() string { return "table5" }

func (r Table5Result) String() string {
	t := stats.NewTable("Table 5: Improved Cleaning with Free-Page Information",
		"Transactions", "RelPagesMoved", "RelCleanTime", "DefaultMoved", "DefaultCleanSec")
	for i, tx := range r.Transactions {
		t.AddRow(tx, r.RelPagesMoved[i], r.RelCleanTime[i], r.DefaultPagesMoved[i], r.DefaultCleanSec[i])
	}
	t.AddNote("paper: relative pages moved 0.25-0.50, relative cleaning time 0.60-0.69")
	return t.String()
}

// table5Device builds the scaled 8 GB-class device: interleaved mapping,
// cleaning watermarks per the paper.
func table5Device(informed bool) (*core.SSD, error) {
	d, err := core.Open("ssd",
		core.WithSSD(ssd.Config{
			Elements:      4,
			Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: 64},
			Overprovision: 0.12,
			Layout:        ssd.Interleaved,
			Scheduler:     sched.SWTF,
			CtrlOverhead:  10 * sim.Microsecond,
			GCLow:         0.05, GCCritical: 0.02,
		}),
		core.WithInformed(informed),
	)
	if err != nil {
		return nil, err
	}
	return d.(*core.SSD), nil
}

// table5Postmark is the Postmark run of one Table 5 row on a device of
// the given capacity. It pre-fills the file system to ~70% so churn
// happens against a mostly-full device, the regime where cleaning
// matters; the paper's 8 GB SSD ran Postmark against a comparably full
// ext3.
func table5Postmark(tx int, seed, space int64) workload.PostmarkConfig {
	return workload.PostmarkConfig{
		Transactions:     tx,
		InitialFiles:     1150,
		FileSizeMin:      4 << 10,
		FileSizeMax:      64 << 10,
		CapacityBytes:    space,
		MeanInterarrival: 200 * sim.Microsecond,
		Seed:             seed + int64(tx),
	}
}

// table5Transactions are the Postmark workload sizes: the paper's sweep.
var table5Transactions = []int{5000, 6000, 7000, 8000}

// Table5 replays each Postmark trace on a default and an informed device
// and compares cleaning work.
func Table5(seed int64, workers int) (Table5Result, error) {
	var res Table5Result
	probe, err := table5Device(false)
	if err != nil {
		return res, err
	}
	space := probe.LogicalBytes()
	var specs []runner.Spec[ssd.GCStats]
	for _, tx := range table5Transactions {
		// Each spec streams its own Postmark run from the shared seed, so
		// the default and informed devices replay identical traces
		// without ever materializing them.
		cfg := table5Postmark(tx, seed, space)
		for _, informed := range []bool{false, true} {
			specs = append(specs, runner.Spec[ssd.GCStats]{
				Name:     fmt.Sprintf("table5/tx%d/informed=%v", tx, informed),
				Workload: "postmark",
				Seed:     seed,
				Run: func() (ssd.GCStats, error) {
					d, err := table5Device(informed)
					if err != nil {
						return ssd.GCStats{}, err
					}
					stream, err := workload.Postmark(cfg)
					if err != nil {
						return ssd.GCStats{}, err
					}
					if err := d.Drive(stream); err != nil {
						return ssd.GCStats{}, err
					}
					return d.Raw.GCStats(), nil
				},
			})
		}
	}
	gcs, err := runner.Run(specs, runner.Options{Workers: workers})
	if err != nil {
		return res, err
	}
	for i, tx := range table5Transactions {
		def, inf := gcs[i*2], gcs[i*2+1]
		res.Transactions = append(res.Transactions, tx)
		res.DefaultPagesMoved = append(res.DefaultPagesMoved, def.PagesMoved)
		res.DefaultCleanSec = append(res.DefaultCleanSec, def.CleanTime.Seconds())
		res.InformedPagesMoved = append(res.InformedPagesMoved, inf.PagesMoved)
		res.InformedCleanSec = append(res.InformedCleanSec, inf.CleanTime.Seconds())
		res.RelPagesMoved = append(res.RelPagesMoved, stats.Ratio(float64(inf.PagesMoved), float64(def.PagesMoved)))
		res.RelCleanTime = append(res.RelCleanTime, stats.Ratio(inf.CleanTime.Seconds(), def.CleanTime.Seconds()))
	}
	return res, nil
}
