package experiments

import (
	"ossd/internal/core"
	"ossd/internal/runner"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// Table2Row is one device's seq/rand characterization.
type Table2Row struct {
	Device     string
	SeqRead    float64
	RandRead   float64
	ReadRatio  float64
	SeqWrite   float64
	RandWrite  float64
	WriteRatio float64
}

// Table2Result reproduces Table 2: "Ratio of Sequential to Random
// Bandwidth" for the HDD baseline and the five SSD profiles.
type Table2Result struct {
	Rows []Table2Row
}

// ID implements Result.
func (Table2Result) ID() string { return "table2" }

// Table renders the result.
func (r Table2Result) Table() *stats.Table {
	t := stats.NewTable(
		"Table 2: Ratio of Sequential to Random Bandwidth (MB/s)",
		"Device", "SeqRead", "RandRead", "Ratio", "SeqWrite", "RandWrite", "Ratio",
	)
	for _, row := range r.Rows {
		t.AddRow(row.Device, row.SeqRead, row.RandRead, row.ReadRatio,
			row.SeqWrite, row.RandWrite, row.WriteRatio)
	}
	t.AddNote("HDD seq/rand gap is two orders of magnitude; SSD read gaps are small;")
	t.AddNote("full-stripe SSDs (S2, S3) have random-write bandwidth below the HDD's.")
	return t
}

func (r Table2Result) String() string { return r.Table().String() }

// table2Tests are the four measurements per device, in column order.
var table2Tests = []struct {
	label   string
	kind    trace.Kind
	pattern core.Pattern
}{
	{"seqread", trace.Read, core.Sequential},
	{"randread", trace.Read, core.Random},
	{"seqwrite", trace.Write, core.Sequential},
	{"randwrite", trace.Write, core.Random},
}

// table2Devices is Table 2's device set in row order, with the request
// sizes and the per-test queue depths (in table2Tests order) each device
// is benchmarked at. Real devices are benchmarked at the depth their
// firmware is designed for (e.g. deep NCQ write queues on high-end
// parts).
var table2Devices = []struct {
	profile         string
	seqReq, randReq int64
	depth           [4]int
}{
	{"HDD", 1 << 20, 4096, [4]int{1, 1, 1, 1}},
	{"S1slc", 1 << 20, 4096, [4]int{1, 2, 1, 8}},
	{"S2slc", 1 << 20, 4096, [4]int{1, 1, 1, 1}},
	{"S3slc", 256 << 10, 4096, [4]int{1, 2, 1, 1}},
	{"S4slc_sim", 4096, 4096, [4]int{1, 1, 2, 2}},
	{"S5mlc", 256 << 10, 4096, [4]int{1, 2, 1, 4}},
}

// Table2 runs the four measurements per device, each on a fresh,
// preconditioned device. A sequential test moves 32 MB; a random one
// moves 4 MB, since random tests on slow devices dominate wall time.
// Every (device, test) cell is one spec, so the whole table fans out
// across the worker pool.
func Table2(seed int64, workers int) (Table2Result, error) {
	var res Table2Result
	var specs []runner.Spec[float64]
	for _, dev := range table2Devices {
		p, err := core.ProfileByName(dev.profile)
		if err != nil {
			return res, err
		}
		for i, tc := range table2Tests {
			bw := core.BWOptions{
				Kind:       tc.kind,
				Pattern:    tc.pattern,
				ReqBytes:   dev.seqReq,
				TotalBytes: 32 << 20,
				Depth:      dev.depth[i],
				Seed:       seed + 1,
			}
			if tc.pattern == core.Random {
				bw.ReqBytes, bw.TotalBytes = dev.randReq, 4<<20
			}
			specs = append(specs, runner.Spec[float64]{
				Name:    p.Name + "/" + tc.label,
				Profile: p.Name,
				Seed:    seed,
				Run: func() (float64, error) {
					d, err := preconditioned(p)
					if err != nil {
						return 0, err
					}
					return core.MeasureBandwidth(d, bw)
				},
			})
		}
	}
	bws, err := runner.Run(specs, runner.Options{Workers: workers})
	if err != nil {
		return res, err
	}
	for i, dev := range table2Devices {
		row := Table2Row{
			Device:    dev.profile,
			SeqRead:   bws[i*4],
			RandRead:  bws[i*4+1],
			SeqWrite:  bws[i*4+2],
			RandWrite: bws[i*4+3],
		}
		row.ReadRatio = stats.Ratio(row.SeqRead, row.RandRead)
		row.WriteRatio = stats.Ratio(row.SeqWrite, row.RandWrite)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
