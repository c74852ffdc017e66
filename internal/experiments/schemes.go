package experiments

import (
	"ossd/internal/core"
	"ossd/internal/flash"
	"ossd/internal/ftl"
	"ossd/internal/runner"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// SchemesResult is an extension experiment: the three classic FTL mapping
// schemes (page-mapped log-structured, hybrid log-block, block-mapped)
// compared on sequential and random write bandwidth. The paper's
// engineering samples span exactly this design space — S1's strong random
// writes are page-mapping behaviour, S2/S3's collapse is block-granular
// RMW — so the scheme sweep shows the mechanism behind Table 2's spread.
type SchemesResult struct {
	Schemes   []string
	SeqWrite  []float64 // MB/s
	RandWrite []float64 // MB/s
	WriteAmp  []float64
}

// ID implements Result.
func (SchemesResult) ID() string { return "schemes" }

func (r SchemesResult) String() string {
	t := stats.NewTable("Extension: FTL mapping schemes (write bandwidth, MB/s)",
		"Scheme", "SeqWrite", "RandWrite", "Seq/Rand", "WriteAmp")
	for i := range r.Schemes {
		t.AddRow(r.Schemes[i], r.SeqWrite[i], r.RandWrite[i],
			stats.Ratio(r.SeqWrite[i], r.RandWrite[i]), r.WriteAmp[i])
	}
	t.AddNote("page mapping keeps random ~sequential; block mapping collapses")
	t.AddNote("(a full-block read-merge-write per random page); hybrid sits between.")
	return t.String()
}

// schemesPoint is one mapping scheme's measurements.
type schemesPoint struct {
	seq, rnd, amp float64
}

// Schemes runs the comparison on identical geometry, one spec per
// scheme. workers caps the pool (0 = runner default).
func Schemes(seed int64, workers int) (SchemesResult, error) {
	var res SchemesResult
	measure := func(s ftl.Scheme) (schemesPoint, error) {
		var pt schemesPoint
		dev, err := core.Open("ssd",
			core.WithSSD(ssd.Config{
				Elements:      8,
				Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: 64},
				Overprovision: 0.10,
				Layout:        ssd.Interleaved,
				Scheduler:     sched.SWTF,
				CtrlOverhead:  10 * sim.Microsecond,
			}),
			core.WithScheme(s),
		)
		if err != nil {
			return pt, err
		}
		d := dev.(*core.SSD)
		if err := core.PreconditionFrac(d, 1<<20, 0.7); err != nil {
			return pt, err
		}
		pt.seq, err = core.MeasureBandwidth(d, core.BWOptions{
			Kind: trace.Write, Pattern: core.Sequential,
			ReqBytes: 256 << 10, TotalBytes: 16 << 20, Depth: 1, Seed: seed,
		})
		if err != nil {
			return pt, err
		}
		gBefore := d.Raw.GCStats()
		mBefore := d.Raw.Metrics()
		pt.rnd, err = core.MeasureBandwidth(d, core.BWOptions{
			Kind: trace.Write, Pattern: core.Random,
			ReqBytes: 4096, TotalBytes: 2 << 20, Depth: 4, Seed: seed,
		})
		if err != nil {
			return pt, err
		}
		gAfter := d.Raw.GCStats()
		mAfter := d.Raw.Metrics()
		media := float64(gAfter.HostPageWrites + gAfter.PagesMoved - gBefore.HostPageWrites - gBefore.PagesMoved)
		host := float64(mAfter.BytesWritten-mBefore.BytesWritten) / 4096
		pt.amp = media / host
		return pt, nil
	}
	schemes := []ftl.Scheme{ftl.PageMapped, ftl.HybridLog, ftl.BlockMapped}
	specs := make([]runner.Spec[schemesPoint], len(schemes))
	for i, s := range schemes {
		specs[i] = runner.Spec[schemesPoint]{
			Name: "schemes/" + s.String(),
			Seed: seed,
			Run:  func() (schemesPoint, error) { return measure(s) },
		}
	}
	pts, err := runner.Run(specs, runner.Options{Workers: workers})
	if err != nil {
		return res, err
	}
	for i, s := range schemes {
		res.Schemes = append(res.Schemes, s.String())
		res.SeqWrite = append(res.SeqWrite, pts[i].seq)
		res.RandWrite = append(res.RandWrite, pts[i].rnd)
		res.WriteAmp = append(res.WriteAmp, pts[i].amp)
	}
	return res, nil
}
