package experiments

import (
	"testing"

	"ossd/internal/core"
	"ossd/internal/flash"
	"ossd/internal/ftl"
	"ossd/internal/osd"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/trace"
	"ossd/internal/workload"
)

// Integration tests exercising whole pipelines across modules, the way a
// downstream user would compose them.

// TestPipelinePostmarkInformedDevice replays a Postmark trace (with its
// free notifications) end to end through the aligner and an informed
// device, checking that every moving part engaged.
func TestPipelinePostmarkInformedDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite skipped in -short mode")
	}
	dev, err := core.Build(core.Profile{Kind: core.KindSSD, SSD: ssd.Config{
		Elements:      4,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: 64},
		Overprovision: 0.12,
		// Interleaved: the mapping unit is one page, so Postmark's small
		// file deletions translate into applicable frees. (On a 32 KB
		// full-stripe device the same frees are sub-unit and the FTL must
		// conservatively keep the stripes live.)
		Layout:       ssd.Interleaved,
		Scheduler:    sched.SWTF,
		CtrlOverhead: 10 * sim.Microsecond,
		GCLow:        0.05, GCCritical: 0.02,
		Informed: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.Postmark(workload.PostmarkConfig{
		Transactions:     3000,
		InitialFiles:     200,
		CapacityBytes:    dev.LogicalBytes() / 2,
		MeanInterarrival: 300 * sim.Microsecond,
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	aligned, err := trace.AlignStream(stream, 32<<10, trace.AlignOptions{
		MaxGap: 5 * sim.Millisecond, ReadBarrier: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Drive(aligned); err != nil {
		t.Fatal(err)
	}
	raw := dev.(*core.SSD).Raw
	m := raw.Metrics()
	g := raw.GCStats()
	if m.Completed == 0 || m.Errors != 0 {
		t.Fatalf("replay: %+v", m)
	}
	if g.FreesApplied == 0 {
		t.Fatal("informed device never applied a free")
	}
	for _, el := range raw.Elements() {
		if err := el.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelineOSDChurnAllSchemes drives object churn through the OSD on
// each FTL scheme; the store semantics must be identical.
func TestPipelineOSDChurnAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite skipped in -short mode")
	}
	for _, scheme := range []struct {
		name string
		s    int
	}{{"page", 0}, {"block", 1}, {"hybrid", 2}} {
		t.Run(scheme.name, func(t *testing.T) {
			eng := sim.NewEngine()
			dev, err := ssd.New(eng, ssd.Config{
				Elements:      2,
				Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 16, BlocksPerPackage: 64},
				Overprovision: 0.15,
				Layout:        ssd.Interleaved,
				Scheduler:     sched.SWTF,
				Informed:      true,
				Scheme:        schemeOf(scheme.s),
			})
			if err != nil {
				t.Fatal(err)
			}
			st, err := osd.New(dev)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(7)
			var live []osd.ObjectID
			for i := 0; i < 300; i++ {
				switch {
				case len(live) < 5 || rng.Bool(0.4):
					id := st.Create(osd.Attributes{})
					size := (rng.Int63n(8) + 1) * 4096
					if err := st.Write(id, 0, size, nil); err != nil {
						t.Fatal(err)
					}
					live = append(live, id)
				case rng.Bool(0.5):
					id := live[rng.Intn(len(live))]
					sz, _ := st.Size(id)
					if sz > 0 {
						if err := st.Read(id, 0, sz, nil); err != nil {
							t.Fatal(err)
						}
					}
				default:
					k := rng.Intn(len(live))
					if err := st.Delete(live[k]); err != nil {
						t.Fatal(err)
					}
					live = append(live[:k], live[k+1:]...)
				}
				eng.Run()
			}
			if got := len(st.List()); got != len(live) {
				t.Fatalf("store has %d objects, model %d", got, len(live))
			}
			for _, el := range dev.Elements() {
				if err := el.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func schemeOf(i int) ftl.Scheme {
	switch i {
	case 1:
		return ftl.BlockMapped
	case 2:
		return ftl.HybridLog
	default:
		return ftl.PageMapped
	}
}
