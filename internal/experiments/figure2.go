package experiments

import (
	"fmt"

	"ossd/internal/core"
	"ossd/internal/runner"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// Figure2Result reproduces Figure 2: write bandwidth vs. write size on
// the S2slc-class device (1 MB stripe). Bandwidth peaks when the write
// size is a multiple of the stripe and drops when a trailing partial
// stripe forces read-modify-write — the saw-tooth.
type Figure2Result struct {
	// Series maps write size (MB) to bandwidth (MB/s).
	Series stats.Series
	// PeakMBps and TroughMBps summarize the saw-tooth amplitude over the
	// sizes past the first stripe.
	PeakMBps, TroughMBps float64
}

// ID implements Result.
func (Figure2Result) ID() string { return "figure2" }

func (r Figure2Result) String() string {
	out := "Figure 2: Write Amplification (bandwidth vs write size, 1 MB stripe)\n"
	out += r.Series.String()
	t := stats.NewTable("", "", "")
	t.AddRow("peak MB/s (stripe-aligned sizes)", r.PeakMBps)
	t.AddRow("trough MB/s (stripe+partial sizes)", r.TroughMBps)
	return out + t.String()
}

// Figure2 runs the sweep, measuring sustained sequential-write bandwidth
// at each request size from 256 KB to 9 MB (the paper's axis) in 256 KB
// steps, writing 24 MB per point. Every point is one spec on its own
// fresh, preconditioned S2slc device, so all points start from the
// identical fully-mapped steady state and sweep order cannot leak
// between them. The sweep is deterministic, so it takes no seed.
func Figure2(_ int64, workers int) (Figure2Result, error) {
	var res Figure2Result
	res.Series.Name = "write-size(MB) bandwidth(MB/s)"
	p, err := core.ProfileByName("S2slc")
	if err != nil {
		return res, err
	}
	stripe := p.SSD.StripeBytes
	var sizes []int64
	var specs []runner.Spec[float64]
	for size := int64(256 << 10); size <= 9<<20; size += 256 << 10 {
		sizes = append(sizes, size)
		specs = append(specs, runner.Spec[float64]{
			Name:    fmt.Sprintf("figure2/%dKiB", size>>10),
			Profile: p.Name,
			Run: func() (float64, error) {
				d, err := preconditioned(p)
				if err != nil {
					return 0, err
				}
				return core.MeasureBandwidth(d, core.BWOptions{
					Kind:       trace.Write,
					Pattern:    core.Sequential,
					ReqBytes:   size,
					TotalBytes: 24 << 20,
					Depth:      1,
				})
			},
		})
	}
	bws, err := runner.Run(specs, runner.Options{Workers: workers})
	if err != nil {
		return res, err
	}
	var peaks, troughs []float64
	for i, size := range sizes {
		bw := bws[i]
		res.Series.Add(float64(size)/1e6, bw)
		if size >= stripe {
			if size%stripe == 0 {
				peaks = append(peaks, bw)
			} else {
				troughs = append(troughs, bw)
			}
		}
	}
	_, res.PeakMBps, _ = stats.Summarize(peaks)
	_, res.TroughMBps, _ = stats.Summarize(troughs)
	return res, nil
}
