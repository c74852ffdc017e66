package experiments

import (
	"strings"
	"testing"

	"ossd/internal/core"
	"ossd/internal/fault"
	"ossd/internal/sim"
)

// The experiment tests run each experiment at the size cmd/repro
// reports and assert the *shape* of each result — who wins,
// monotonicity, crossover locations — which is the reproduction target.

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	r, err := Table2(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Table2Row{}
	for _, row := range r.Rows {
		rows[row.Device] = row
	}
	hdd, ok := rows["HDD"]
	if !ok {
		t.Fatal("no HDD row")
	}
	// HDD: ratios two orders of magnitude.
	if hdd.ReadRatio < 50 {
		t.Errorf("HDD read ratio = %.1f, want >> 50", hdd.ReadRatio)
	}
	if hdd.WriteRatio < 20 {
		t.Errorf("HDD write ratio = %.1f, want >> 20", hdd.WriteRatio)
	}
	// Every SSD's random-read gap is far smaller than the disk's.
	for _, name := range []string{"S1slc", "S2slc", "S3slc", "S4slc_sim", "S5mlc"} {
		row, ok := rows[name]
		if !ok {
			t.Fatalf("missing row %s", name)
		}
		if row.ReadRatio >= hdd.ReadRatio/3 {
			t.Errorf("%s read ratio %.1f not well below HDD's %.1f", name, row.ReadRatio, hdd.ReadRatio)
		}
	}
	// The simulated device: both ratios near 1.
	s4 := rows["S4slc_sim"]
	if s4.ReadRatio > 1.5 || s4.WriteRatio > 2 {
		t.Errorf("S4slc_sim ratios %.2f/%.2f, want ~1", s4.ReadRatio, s4.WriteRatio)
	}
	// Full-stripe devices: random write below the HDD's random write.
	for _, name := range []string{"S2slc", "S3slc"} {
		if rows[name].RandWrite >= hdd.RandWrite {
			t.Errorf("%s random write %.2f MB/s not below HDD %.2f", name, rows[name].RandWrite, hdd.RandWrite)
		}
	}
	if !strings.Contains(r.String(), "Table 2") {
		t.Error("rendering lacks title")
	}
}

func TestSWTFBeatFCFS(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	r, err := SWTF(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.SWTFMeanMs >= r.FCFSMeanMs {
		t.Fatalf("SWTF %.3f ms not better than FCFS %.3f ms", r.SWTFMeanMs, r.FCFSMeanMs)
	}
	// Paper: ~8%. Accept a broad band around it.
	if r.ImprovementPct < 2 || r.ImprovementPct > 30 {
		t.Fatalf("improvement %.1f%%, want ~8%%", r.ImprovementPct)
	}
	if r.ID() != "swtf" {
		t.Error("wrong ID")
	}
}

func TestFigure2SawTooth(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	r, err := Figure2(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Peaks at stripe multiples must beat the troughs between them.
	if r.PeakMBps <= 1.3*r.TroughMBps {
		t.Fatalf("no saw-tooth: peak %.1f, trough %.1f", r.PeakMBps, r.TroughMBps)
	}
	// Bandwidth at 1 MB (the stripe) must be the max of the sub-stripe
	// region, and the point right after it must drop.
	find := func(mb float64) float64 {
		for i, x := range r.Series.X {
			if x > mb-0.01 && x < mb+0.01 {
				return r.Series.Y[i]
			}
		}
		t.Fatalf("missing point at %.2f MB", mb)
		return 0
	}
	atStripe := find(1.048576) // 1 MiB in decimal MB
	after := find(1.048576 + 0.262144)
	if after >= atStripe {
		t.Fatalf("no drop past the stripe: %.1f -> %.1f", atStripe, after)
	}
	small := find(0.262144)
	if small >= atStripe {
		t.Fatalf("small writes %.1f not slower than stripe-aligned %.1f", small, atStripe)
	}
	if r.ID() != "figure2" {
		t.Error("wrong ID")
	}
}

func TestTable3AlignmentImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	r, err := Table3(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Unaligned) != 5 || len(r.Aligned) != 5 {
		t.Fatalf("row lengths: %d %d", len(r.Unaligned), len(r.Aligned))
	}
	// At p=0 the schemes coincide (nothing to merge).
	if diff := r.Aligned[0] - r.Unaligned[0]; diff > 0.2*r.Unaligned[0] {
		t.Errorf("p=0: aligned %.2f vs unaligned %.2f, want ~equal", r.Aligned[0], r.Unaligned[0])
	}
	// Aligned improves monotonically in p (within noise) and by >40% at
	// p=0.8, the paper's ">50%" result.
	last := len(r.Aligned) - 1
	if r.Aligned[last] >= r.Aligned[1] {
		t.Errorf("aligned not improving with sequentiality: %v", r.Aligned)
	}
	imp := (r.Unaligned[last] - r.Aligned[last]) / r.Unaligned[last] * 100
	if imp < 40 {
		t.Errorf("p=0.8 improvement %.1f%%, want > 40%%", imp)
	}
}

func TestTable4Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	r, err := Table4(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	imp := map[string]float64{}
	for i, w := range r.Workloads {
		imp[w] = r.ImprovementPct[i]
	}
	// The paper's ordering: IOzone benefits by far the most; Postmark is
	// negligible.
	if imp["IOzone"] < 20 {
		t.Errorf("IOzone improvement %.1f%%, want large (paper 36.5%%)", imp["IOzone"])
	}
	if imp["IOzone"] <= imp["Exchange"] || imp["IOzone"] <= imp["TPCC"] || imp["IOzone"] <= imp["Postmark"] {
		t.Errorf("IOzone not the largest: %v", imp)
	}
	if imp["Postmark"] > 5 || imp["Postmark"] < -5 {
		t.Errorf("Postmark improvement %.1f%%, want negligible (paper 1.15%%)", imp["Postmark"])
	}
}

func TestTable5InformedCleaning(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	r, err := Table5(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.RelPagesMoved) != 4 {
		t.Fatalf("want 4 rows, got %d", len(r.RelPagesMoved))
	}
	for i, tx := range r.Transactions {
		if r.DefaultPagesMoved[i] == 0 {
			t.Fatalf("tx %d: default FTL never cleaned; workload too small", tx)
		}
		// Informed cleaning moves strictly fewer pages and spends less
		// time, in the paper's band (rel pages 0.25-0.5, rel time < 1).
		if r.RelPagesMoved[i] >= 0.9 {
			t.Errorf("tx %d: relative pages moved %.2f, want well below 1", tx, r.RelPagesMoved[i])
		}
		if r.RelCleanTime[i] >= 0.9 {
			t.Errorf("tx %d: relative cleaning time %.2f, want well below 1", tx, r.RelCleanTime[i])
		}
	}
}

func TestFigure3PriorityAware(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	r, err := Figure3(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Rows are the write percentages 20, 40, 50, 60, 80.
	// At 20% writes cleaning is rare: no meaningful improvement.
	if r.ImprovementPct[0] > 5 {
		t.Errorf("improvement at 20%% writes = %.1f%%, want ~0", r.ImprovementPct[0])
	}
	// At 50%+ writes the aware scheme helps the foreground.
	if r.ImprovementPct[2] < 2 {
		t.Errorf("improvement at 50%% writes = %.1f%%, want noticeable", r.ImprovementPct[2])
	}
	if r.ImprovementPct[4] < 5 {
		t.Errorf("improvement at 80%% writes = %.1f%%, want ~10%%", r.ImprovementPct[4])
	}
	// Foreground responses rise with write share under both policies.
	if r.FgAgnostic[4] <= r.FgAgnostic[0] {
		t.Errorf("agnostic foreground response not increasing with writes: %v", r.FgAgnostic)
	}
}

func TestContractVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	r, err := Contract(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("want 6 contract terms, got %d", len(r.Rows))
	}
	// Paper's Table 1 columns (Disk, RAID, MEMS, SSD). The simulated
	// SSD's gang is uniform, so its address space is interchangeable
	// and term 3 measures T.
	wantDisk := []bool{true, true, false, true, true, true}
	wantRAID := []bool{true, false, false, false, true, true}
	wantMEMS := []bool{true, true, true, true, true, true}
	wantSSD := []bool{false, false, true, false, false, false}
	for i, row := range r.Rows {
		if row.Disk != wantDisk[i] {
			t.Errorf("term %d disk = %v, want %v (%s)", i+1, row.Disk, wantDisk[i], row.Evidence)
		}
		if row.RAID != wantRAID[i] {
			t.Errorf("term %d raid = %v, want %v (%s)", i+1, row.RAID, wantRAID[i], row.Evidence)
		}
		if row.MEMS != wantMEMS[i] {
			t.Errorf("term %d mems = %v, want %v (%s)", i+1, row.MEMS, wantMEMS[i], row.Evidence)
		}
		if row.SSD != wantSSD[i] {
			t.Errorf("term %d ssd = %v, want %v (%s)", i+1, row.SSD, wantSSD[i], row.Evidence)
		}
	}
}

// The contract experiment asserts each class's concrete device type to
// reach its model; a process-wide fault plan (repro -fault) must not
// change that type. Not parallel: the default plan is process-wide.
func TestContractUnderDefaultFault(t *testing.T) {
	defer core.SetDefaultFault(core.SetDefaultFault(&fault.Plan{Seed: 1, Transient: &fault.Transient{Rate: 0.01}}))
	r, err := Contract(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("want 6 contract terms, got %d", len(r.Rows))
	}
}

func TestProfilesInstantiable(t *testing.T) {
	for _, dev := range table2Devices {
		if dev.seqReq <= 0 || dev.randReq <= 0 {
			t.Fatalf("%s: bad request sizes", dev.profile)
		}
		for _, depth := range dev.depth {
			if depth <= 0 {
				t.Fatalf("%s: missing depths", dev.profile)
			}
		}
		d, err := core.Open(dev.profile)
		if err != nil {
			t.Fatalf("%s: %v", dev.profile, err)
		}
		if d.LogicalBytes() <= 0 {
			t.Fatalf("%s: no capacity", dev.profile)
		}
	}
	if _, err := core.ProfileByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestResultIDs(t *testing.T) {
	ids := []Result{Table2Result{}, SWTFResult{}, Figure2Result{}, Table3Result{}, Table4Result{}, Table5Result{}, Figure3Result{}, ContractResult{}}
	want := []string{"table2", "swtf", "figure2", "table3", "table4", "table5", "figure3", "contract"}
	for i, r := range ids {
		if r.ID() != want[i] {
			t.Errorf("result %d ID = %q, want %q", i, r.ID(), want[i])
		}
	}
}

func TestMeasureBandwidthValidation(t *testing.T) {
	p, err := core.ProfileByName("S4slc_sim")
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.MeasureBandwidth(d, core.BWOptions{ReqBytes: 0, TotalBytes: 1}); err == nil {
		t.Error("accepted zero request size")
	}
	if _, err := core.MeasureBandwidth(d, core.BWOptions{ReqBytes: d.LogicalBytes() * 2, TotalBytes: d.LogicalBytes() * 2}); err == nil {
		t.Error("accepted request larger than device")
	}
}

func TestPreconditionFracValidation(t *testing.T) {
	p, _ := core.ProfileByName("S4slc_sim")
	d, _ := p.NewDevice()
	if err := core.PreconditionFrac(d, 1<<20, 0); err == nil {
		t.Error("accepted zero fraction")
	}
	if err := core.PreconditionFrac(d, 1<<20, 1.5); err == nil {
		t.Error("accepted fraction > 1")
	}
}

func TestPreconditionMapsRegion(t *testing.T) {
	p, _ := core.ProfileByName("S4slc_sim")
	d, _ := p.NewDevice()
	if err := core.PreconditionFrac(d, 1<<20, 0.5); err != nil {
		t.Fatal(err)
	}
	sd := d.(*core.SSD)
	written := d.Metrics().BytesWritten
	if written < d.LogicalBytes()/2-(1<<20) {
		t.Fatalf("precondition wrote %d of %d", written, d.LogicalBytes()/2)
	}
	// Spot-check: a page in the filled half is mapped.
	el := sd.Raw.Elements()[0]
	if !el.Mapped(0) {
		t.Error("first page unmapped after precondition")
	}
	if d.Engine().Now() == sim.Time(0) {
		t.Error("precondition consumed no simulated time")
	}
}

func TestSchemesOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	r, err := Schemes(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Schemes) != 3 {
		t.Fatalf("want 3 schemes, got %d", len(r.Schemes))
	}
	// Random-write bandwidth: page > hybrid > block; amplification the
	// reverse.
	if !(r.RandWrite[0] > r.RandWrite[1] && r.RandWrite[1] > r.RandWrite[2]) {
		t.Fatalf("random-write ordering wrong: %v", r.RandWrite)
	}
	if !(r.WriteAmp[0] < r.WriteAmp[1] && r.WriteAmp[1] < r.WriteAmp[2]) {
		t.Fatalf("amplification ordering wrong: %v", r.WriteAmp)
	}
	// Sequential writes stay within the same order of magnitude on all
	// schemes (replacement blocks keep block mapping competitive).
	if r.SeqWrite[2] < r.SeqWrite[0]/3 {
		t.Fatalf("block-mapped sequential collapsed: %v", r.SeqWrite)
	}
}

func TestLifetimeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	r, err := Lifetime(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Configs) != 3 {
		t.Fatalf("want 3 configs, got %d", len(r.Configs))
	}
	// Wear-leveling must extend life; the 1/10-budget MLC device must die
	// far earlier.
	if r.HostMB[1] <= r.HostMB[0] {
		t.Fatalf("wear-leveling did not extend life: %v", r.HostMB)
	}
	if r.HostMB[2] >= r.HostMB[1]/4 {
		t.Fatalf("MLC outlived its 1/10 budget: %v", r.HostMB)
	}
	// Leveling also narrows the spread at death.
	if r.WearSpread[1] >= r.WearSpread[0] {
		t.Fatalf("wear spread not reduced: %v", r.WearSpread)
	}
}
