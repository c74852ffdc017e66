package ftl

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ossd/internal/flash"
)

func smallConfig() Config {
	return Config{
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 8, BlocksPerPackage: 16},
		Timing:        flash.TimingFor(flash.SLC),
		Overprovision: 0.15,
	}
}

func newElement(t *testing.T, cfg Config) *Element {
	t.Helper()
	el, err := NewElement(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return el
}

func TestNewElementValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Overprovision = -0.1
	if _, err := NewElement(cfg); err == nil {
		t.Error("accepted negative overprovision")
	}
	cfg = smallConfig()
	cfg.Overprovision = 0.95
	if _, err := NewElement(cfg); err == nil {
		t.Error("accepted 95% overprovision")
	}
	cfg = smallConfig()
	cfg.Geom.BlocksPerPackage = 2
	if _, err := NewElement(cfg); err == nil {
		t.Error("accepted 2-block package")
	}
	cfg = smallConfig()
	cfg.Geom.PageSize = 0
	if _, err := NewElement(cfg); err == nil {
		t.Error("accepted invalid geometry")
	}
}

func TestLogicalCapacity(t *testing.T) {
	el := newElement(t, smallConfig())
	phys := 8 * 16
	want := int(float64(phys) * 0.85)
	if el.LogicalPages() != want {
		t.Fatalf("LogicalPages = %d, want %d", el.LogicalPages(), want)
	}
	if el.physPage != phys {
		t.Fatalf("physical pages = %d, want %d", el.physPage, phys)
	}
	if el.FreeFraction() != 1.0 {
		t.Fatalf("fresh element FreeFraction = %v, want 1", el.FreeFraction())
	}
}

func TestLogicalCapacityClamped(t *testing.T) {
	// With tiny overprovision the logical space must still leave two
	// blocks of slack.
	cfg := smallConfig()
	cfg.Overprovision = 0
	el := newElement(t, cfg)
	if el.LogicalPages() > el.physPage-2*8 {
		t.Fatalf("LogicalPages = %d leaves less than 2 blocks slack", el.LogicalPages())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	el := newElement(t, smallConfig())
	if _, err := el.WritePages(5, 1); err != nil {
		t.Fatal(err)
	}
	if !el.Mapped(5) {
		t.Fatal("lpn 5 not mapped after write")
	}
	d, err := el.ReadPage(5)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("read cost not positive")
	}
	if err := el.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadUnmappedIsCheap(t *testing.T) {
	el := newElement(t, smallConfig())
	dUnmapped, err := el.ReadPage(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := el.WritePages(3, 1); err != nil {
		t.Fatal(err)
	}
	dMapped, err := el.ReadPage(3)
	if err != nil {
		t.Fatal(err)
	}
	if dUnmapped >= dMapped {
		t.Fatalf("unmapped read (%v) should be cheaper than mapped read (%v)", dUnmapped, dMapped)
	}
}

func TestOutOfRange(t *testing.T) {
	el := newElement(t, smallConfig())
	if _, err := el.WritePages(el.LogicalPages(), 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("write: %v", err)
	}
	if _, err := el.ReadPage(-1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read: %v", err)
	}
	if err := el.Free(el.LogicalPages() + 3); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("free: %v", err)
	}
}

func TestOverwriteInvalidatesOldCopy(t *testing.T) {
	el := newElement(t, smallConfig())
	for i := 0; i < 4; i++ {
		if _, err := el.WritePages(7, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := el.Stats()
	if st.HostWrites != 4 {
		t.Fatalf("HostWrites = %d", st.HostWrites)
	}
	// One valid copy, three invalid.
	valid := 0
	for _, s := range el.pageState {
		if s == pageValid {
			valid++
		}
	}
	if valid != 1 {
		t.Fatalf("valid pages = %d, want 1", valid)
	}
	if err := el.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// fill writes every logical page once.
func fill(t *testing.T, el *Element) {
	t.Helper()
	for lpn := 0; lpn < el.LogicalPages(); lpn++ {
		if _, err := el.WritePages(lpn, 1); err != nil {
			t.Fatalf("fill lpn %d: %v", lpn, err)
		}
	}
}

func TestSustainedOverwriteTriggersCleaning(t *testing.T) {
	el := newElement(t, smallConfig())
	fill(t, el)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4*el.LogicalPages(); i++ {
		if _, err := el.WritePages(rng.Intn(el.LogicalPages()), 1); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
	st := el.Stats()
	if st.Cleans == 0 || st.GCErases == 0 {
		t.Fatalf("no cleaning under sustained overwrite: %+v", st)
	}
	if st.CleanTime <= 0 {
		t.Fatal("cleaning consumed no time")
	}
	if err := el.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The element must never run below its two-block slack after a write.
	if el.freePages < 0 {
		t.Fatal("negative free pages")
	}
}

func TestInformedFreeInvalidates(t *testing.T) {
	cfg := smallConfig()
	cfg.Informed = true
	el := newElement(t, cfg)
	if _, err := el.WritePages(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := el.Free(2); err != nil {
		t.Fatal(err)
	}
	if el.Mapped(2) {
		t.Fatal("lpn still mapped after informed free")
	}
	st := el.Stats()
	if st.FreesSeen != 1 || st.FreesApplied != 1 {
		t.Fatalf("free counters: %+v", st)
	}
	// Freeing an unmapped page is harmless.
	if err := el.Free(2); err != nil {
		t.Fatal(err)
	}
	if el.Stats().FreesApplied != 1 {
		t.Fatal("second free applied to unmapped page")
	}
	if err := el.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultIgnoresFrees(t *testing.T) {
	el := newElement(t, smallConfig())
	if _, err := el.WritePages(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := el.Free(2); err != nil {
		t.Fatal(err)
	}
	if !el.Mapped(2) {
		t.Fatal("default FTL dropped a mapping on free")
	}
	st := el.Stats()
	if st.FreesSeen != 1 || st.FreesApplied != 0 {
		t.Fatalf("free counters: %+v", st)
	}
}

// TestInformedCleaningMovesFewerPages is the heart of Table 5: with the
// same workload, the informed FTL must copy strictly fewer pages during
// cleaning than the default FTL.
func TestInformedCleaningMovesFewerPages(t *testing.T) {
	run := func(informed bool) Stats {
		cfg := smallConfig()
		cfg.Geom.BlocksPerPackage = 64
		cfg.Informed = informed
		el, err := NewElement(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		n := el.LogicalPages()
		live := make([]bool, n)
		// Churn: write, and free half of what we wrote shortly after,
		// like a file system creating and deleting temporary files.
		for i := 0; i < 12*n; i++ {
			lpn := rng.Intn(n)
			if live[lpn] && rng.Intn(2) == 0 {
				if err := el.Free(lpn); err != nil {
					t.Fatal(err)
				}
				live[lpn] = false
				continue
			}
			if _, err := el.WritePages(lpn, 1); err != nil {
				t.Fatal(err)
			}
			live[lpn] = true
		}
		if err := el.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return el.Stats()
	}
	def := run(false)
	inf := run(true)
	if def.Cleans == 0 {
		t.Fatal("default run never cleaned; workload too small")
	}
	if inf.PagesMoved >= def.PagesMoved {
		t.Fatalf("informed moved %d pages, default %d — want strictly fewer", inf.PagesMoved, def.PagesMoved)
	}
	if inf.CleanTime >= def.CleanTime {
		t.Fatalf("informed clean time %v, default %v — want less", inf.CleanTime, def.CleanTime)
	}
}

func TestWearLevelingBoundsSpread(t *testing.T) {
	cfg := smallConfig()
	cfg.Geom.BlocksPerPackage = 32
	cfg.WearAware = true
	cfg.WearDelta = 8
	el := newElement(t, cfg)
	fill(t, el)
	rng := rand.New(rand.NewSource(9))
	// Skewed workload: hammer 10% of the address space. Without
	// migration, blocks holding the cold 90% would never be erased.
	hot := el.LogicalPages() / 10
	if hot == 0 {
		hot = 1
	}
	for i := 0; i < 40*el.LogicalPages(); i++ {
		if _, err := el.WritePages(rng.Intn(hot), 1); err != nil {
			t.Fatal(err)
		}
	}
	ws := el.Wear()
	if ws.Max-ws.Min > 3*cfg.WearDelta {
		t.Fatalf("wear spread %d exceeds 3x delta %d", ws.Max-ws.Min, cfg.WearDelta)
	}
	if el.Stats().Migrations == 0 {
		t.Fatal("no cold-data migrations under skewed workload")
	}
	if err := el.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWearSpreadWithoutLeveling(t *testing.T) {
	// Control for the test above: with wear-leveling off, the same skewed
	// workload must produce a larger spread.
	cfg := smallConfig()
	cfg.Geom.BlocksPerPackage = 32
	cfg.WearAware = false
	el := newElement(t, cfg)
	fill(t, el)
	rng := rand.New(rand.NewSource(9))
	hot := el.LogicalPages() / 10
	if hot == 0 {
		hot = 1
	}
	for i := 0; i < 40*el.LogicalPages(); i++ {
		if _, err := el.WritePages(rng.Intn(hot), 1); err != nil {
			t.Fatal(err)
		}
	}
	ws := el.Wear()
	if ws.Max-ws.Min <= 8 {
		t.Fatalf("expected large wear spread without leveling, got %d", ws.Max-ws.Min)
	}
}

func TestCleanOnceOnCleanDevice(t *testing.T) {
	el := newElement(t, smallConfig())
	if _, err := el.CleanOnce(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("CleanOnce on empty device: %v, want ErrNoSpace", err)
	}
}

func TestFreeFractionDecreasesWithWrites(t *testing.T) {
	el := newElement(t, smallConfig())
	before := el.FreeFraction()
	for i := 0; i < 10; i++ {
		if _, err := el.WritePages(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if el.FreeFraction() >= before {
		t.Fatal("FreeFraction did not decrease")
	}
}

// Property test: arbitrary interleavings of writes, frees, and reads
// preserve all structural invariants after every operation, in both
// informed and default modes, with wear-leveling migrations and
// wear-ceiling retirements in the mix. Sequences run long enough to
// cycle the tiny element's capacity several times, and the test checks
// that each transition actually happened somewhere in the run.
func TestElementInvariantProperty(t *testing.T) {
	cases := []struct {
		name      string
		informed  bool
		mutate    func(*Config)
		mustCover func(Stats) bool
	}{
		{"default", false, func(*Config) {}, func(s Stats) bool { return s.Cleans > 0 }},
		{"informed", true, func(*Config) {}, func(s Stats) bool { return s.FreesApplied > 0 && s.Cleans > 0 }},
		{"wear-aware", false, func(c *Config) { c.WearAware, c.WearDelta = true, 2 },
			func(s Stats) bool { return s.Migrations > 0 }},
		{"wear-aware-informed", true, func(c *Config) { c.WearAware, c.WearDelta = true, 2 },
			func(s Stats) bool { return s.Migrations > 0 }},
		{"wear-ceiling", true, func(c *Config) { c.WearCeiling = 3 },
			func(s Stats) bool { return s.RetiredBlocks > 0 }},
	}
	for _, tc := range cases {
		covered := false
		prop := func(ops []uint16) bool {
			cfg := smallConfig()
			cfg.Informed = tc.informed
			tc.mutate(&cfg)
			el, err := NewElement(cfg)
			if err != nil {
				return false
			}
			n := el.LogicalPages()
			for _, op := range ops {
				lpn := int(op>>2) % n
				switch op % 4 {
				case 0, 1:
					_, err = el.WritePages(lpn, 1)
				case 2:
					err = el.Free(lpn)
				case 3:
					_, err = el.ReadPage(lpn)
				}
				if ierr := el.CheckInvariants(); ierr != nil {
					t.Logf("%s: %v", tc.name, ierr)
					return false
				}
				if cfg.WearCeiling > 0 && errors.Is(err, ErrNoSpace) {
					break // the wear-out cliff ends the run
				}
				if err != nil {
					t.Logf("%s: %v", tc.name, err)
					return false
				}
			}
			covered = covered || tc.mustCover(el.Stats())
			return true
		}
		// Long sequences: the default generator's ~50 ops never fill the
		// 128-page element, so no cleaning would run.
		gen := func(args []reflect.Value, r *rand.Rand) {
			ops := make([]uint16, 600+r.Intn(1200))
			for i := range ops {
				ops[i] = uint16(r.Intn(1 << 16))
			}
			args[0] = reflect.ValueOf(ops)
		}
		cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11)), Values: gen}
		if err := quick.Check(prop, cfg); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !covered {
			t.Fatalf("%s: no run reached the transition under test", tc.name)
		}
	}
}

// Property: the logical view behaves like a map — after any operation
// sequence, a mapped lpn was written and not subsequently freed (informed
// mode).
func TestLogicalViewProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		cfg := smallConfig()
		cfg.Informed = true
		el, err := NewElement(cfg)
		if err != nil {
			return false
		}
		n := el.LogicalPages()
		model := make(map[int]bool)
		for _, op := range ops {
			lpn := int(op>>1) % n
			if op%2 == 0 {
				if _, err := el.WritePages(lpn, 1); err != nil {
					return false
				}
				model[lpn] = true
			} else {
				if err := el.Free(lpn); err != nil {
					return false
				}
				delete(model, lpn)
			}
		}
		for lpn := 0; lpn < n; lpn++ {
			if el.Mapped(lpn) != model[lpn] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

func TestWearOutSurfacesError(t *testing.T) {
	cfg := smallConfig()
	cfg.EraseBudget = 4
	el := newElement(t, cfg)
	fill(t, el)
	rng := rand.New(rand.NewSource(3))
	var sawWearOut bool
	for i := 0; i < 100*el.LogicalPages(); i++ {
		if _, err := el.WritePages(rng.Intn(el.LogicalPages()), 1); err != nil {
			if errors.Is(err, flash.ErrWornOut) {
				sawWearOut = true
				break
			}
			t.Fatalf("unexpected error class: %v", err)
		}
	}
	if !sawWearOut {
		t.Fatal("device with 4-cycle endurance never wore out")
	}
}

func TestStatsAccumulate(t *testing.T) {
	el := newElement(t, smallConfig())
	for i := 0; i < 5; i++ {
		if _, err := el.WritePages(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := el.ReadPage(0); err != nil {
		t.Fatal(err)
	}
	st := el.Stats()
	if st.HostWrites != 5 || st.HostReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// skewedOverwrites fills every logical page of a fresh element, then
// overwrites 20× its logical pages one page at a time, each at the LPN
// pick draws, and returns the element's stats.
func skewedOverwrites(t *testing.T, cfg Config, seed int64, pick func(rng *rand.Rand, n int) int) Stats {
	t.Helper()
	el := newElement(t, cfg)
	n := el.LogicalPages()
	for lpn := 0; lpn < n; lpn++ {
		if _, err := el.WritePages(lpn, 1); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 20*n; i++ {
		if _, err := el.WritePages(pick(rng, n), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := el.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return el.Stats()
}

// TestCostBenefitWithinFivePercentOfGreedyOnSkew bounds cost-benefit
// victim selection against greedy on 90/10 hot/cold traffic: it may
// move at most 5% more pages. The classic LFS result has cost-benefit
// moving fewer; on this geometry it moves a few percent more, so the
// test shows no win, only that the policy is not far off.
func TestCostBenefitWithinFivePercentOfGreedyOnSkew(t *testing.T) {
	run := func(costBenefit bool) Stats {
		cfg := smallConfig()
		cfg.Geom.BlocksPerPackage = 64
		cfg.CostBenefit = costBenefit
		return skewedOverwrites(t, cfg, 99, func(rng *rand.Rand, n int) int {
			lpn := rng.Intn(n / 10)
			if rng.Intn(10) == 0 {
				lpn = rng.Intn(n)
			}
			return lpn
		})
	}
	greedy := run(false)
	cb := run(true)
	if greedy.Cleans == 0 || cb.Cleans == 0 {
		t.Fatal("no cleaning; workload too small")
	}
	// Cost-benefit should not do significantly more relocation work than
	// greedy on this skewed workload.
	if float64(cb.PagesMoved) > 1.05*float64(greedy.PagesMoved) {
		t.Fatalf("cost-benefit moved %d pages vs greedy %d", cb.PagesMoved, greedy.PagesMoved)
	}
	t.Logf("pages moved: greedy=%d cost-benefit=%d", greedy.PagesMoved, cb.PagesMoved)
}

// TestCostBenefitBeatsGreedyAtLowSpare pins the regime where
// cost-benefit cleaning moves clearly fewer pages than greedy: small
// blocks (8 pages), little spare (7%) and a strong hot/cold skew. At
// 90/10 and 95/5 skew, on every seed, cost-benefit must move under 0.9×
// greedy's pages. At 15% spare, as in the test above, or on larger
// blocks it shows no clear win.
func TestCostBenefitBeatsGreedyAtLowSpare(t *testing.T) {
	run := func(costBenefit bool, hotPct int, seed int64) Stats {
		cfg := smallConfig()
		cfg.Geom.BlocksPerPackage = 128
		cfg.Overprovision = 0.07
		cfg.CostBenefit = costBenefit
		// hotPct% of the overwrites go to the first (100-hotPct)% of LPNs.
		return skewedOverwrites(t, cfg, seed, func(rng *rand.Rand, n int) int {
			hot := n * (100 - hotPct) / 100
			lpn := hot + rng.Intn(n-hot)
			if rng.Intn(100) < hotPct {
				lpn = rng.Intn(hot)
			}
			return lpn
		})
	}
	for _, hotPct := range []int{90, 95} {
		for seed := int64(1); seed <= 6; seed++ {
			greedy, cb := run(false, hotPct, seed), run(true, hotPct, seed)
			ratio := float64(cb.PagesMoved) / float64(greedy.PagesMoved)
			t.Logf("%d/%d seed %d: greedy moved %d, cost-benefit %d (%.2fx)",
				hotPct, 100-hotPct, seed, greedy.PagesMoved, cb.PagesMoved, ratio)
			if greedy.PagesMoved == 0 || ratio >= 0.9 {
				t.Errorf("%d/%d seed %d: cost-benefit moved %d pages vs greedy %d, want < 0.9x",
					hotPct, 100-hotPct, seed, cb.PagesMoved, greedy.PagesMoved)
			}
		}
	}
}
