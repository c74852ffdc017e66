package flash

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ossd/internal/sim"
)

func testGeom() Geometry {
	return Geometry{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: 32}
}

func newTestPackage(t *testing.T) *Package {
	t.Helper()
	p, err := NewPackage(testGeom(), TimingFor(SLC), 100)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGeometryDerived(t *testing.T) {
	g := testGeom()
	if g.Pages() != 64*32 {
		t.Fatalf("Pages = %d", g.Pages())
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{PageSize: 0, PagesPerBlock: 64, BlocksPerPackage: 32},
		{PageSize: 4096, PagesPerBlock: 0, BlocksPerPackage: 32},
		{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: -1},
	}
	for _, g := range bad {
		if g.Validate() == nil {
			t.Errorf("Validate accepted %+v", g)
		}
	}
	if err := testGeom().Validate(); err != nil {
		t.Errorf("Validate rejected valid geometry: %v", err)
	}
}

func TestNewPackageRejectsBadInputs(t *testing.T) {
	if _, err := NewPackage(Geometry{}, TimingFor(SLC), 100); err == nil {
		t.Error("accepted zero geometry")
	}
	if _, err := NewPackage(testGeom(), TimingFor(SLC), 0); err == nil {
		t.Error("accepted zero erase budget")
	}
}

func TestTimingProfiles(t *testing.T) {
	slc, mlc := TimingFor(SLC), TimingFor(MLC)
	if slc.PageProgram >= mlc.PageProgram {
		t.Error("SLC program should be faster than MLC")
	}
	if slc.BlockErase >= mlc.BlockErase {
		t.Error("SLC erase should be faster than MLC")
	}
	if slc.PageRead != 25*sim.Microsecond {
		t.Errorf("SLC read = %v", slc.PageRead)
	}
	if EraseBudgetFor(SLC) != 100_000 || EraseBudgetFor(MLC) != 10_000 {
		t.Error("erase budgets wrong")
	}
	if SLC.String() != "SLC" || MLC.String() != "MLC" {
		t.Error("CellType strings wrong")
	}
}

func TestProgramReadCycle(t *testing.T) {
	p := newTestPackage(t)
	d, err := p.ProgramPages(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 200us program + 4096B * 25ns bus = 200us + 102.4us
	want := 200*sim.Microsecond + 4096*25*sim.Nanosecond
	if d != want {
		t.Fatalf("program time = %v, want %v", d, want)
	}
	rd, err := p.ReadPage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantR := 25*sim.Microsecond + 4096*25*sim.Nanosecond
	if rd != wantR {
		t.Fatalf("read time = %v, want %v", rd, wantR)
	}
}

func TestReadUnwritten(t *testing.T) {
	p := newTestPackage(t)
	if _, err := p.ReadPage(0, 0); !errors.Is(err, ErrReadUnwritten) {
		t.Fatalf("err = %v, want ErrReadUnwritten", err)
	}
	mustProgram(t, p, 0, 0)
	if _, err := p.ReadPage(0, 1); !errors.Is(err, ErrReadUnwritten) {
		t.Fatalf("read past write pointer: err = %v", err)
	}
}

func mustProgram(t *testing.T, p *Package, block, page int) {
	t.Helper()
	if _, err := p.ProgramPages(block, page, 1); err != nil {
		t.Fatal(err)
	}
}

func TestInOrderProgramming(t *testing.T) {
	p := newTestPackage(t)
	mustProgram(t, p, 0, 0)
	if _, err := p.ProgramPages(0, 2, 1); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("skip-ahead program: err = %v, want ErrOutOfOrder", err)
	}
	if _, err := p.ProgramPages(0, 0, 1); !errors.Is(err, ErrNotErased) {
		t.Fatalf("overwrite program: err = %v, want ErrNotErased", err)
	}
	mustProgram(t, p, 0, 1)
	if p.WritePointer(0) != 2 {
		t.Fatalf("write pointer = %d, want 2", p.WritePointer(0))
	}
}

// TestProgramPagesRun: a run programs consecutive pages from the write
// pointer at the per-page cost, and a run that would break the
// in-order rule or leave the block programs nothing.
func TestProgramPagesRun(t *testing.T) {
	p := newTestPackage(t)
	d, err := p.ProgramPages(0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * (200*sim.Microsecond + 4096*25*sim.Nanosecond); d != want {
		t.Fatalf("run time = %v, want %v", d, want)
	}
	ppb := p.geom.PagesPerBlock
	for _, bad := range [][2]int{{3, ppb - 2}, {3, 0}, {4, 1}, {2, 1}} {
		if _, err := p.ProgramPages(0, bad[0], bad[1]); err == nil {
			t.Fatalf("ProgramPages(0, %d, %d) accepted", bad[0], bad[1])
		}
	}
	if wp := p.WritePointer(0); wp != 3 {
		t.Fatalf("write pointer = %d after rejected runs, want 3", wp)
	}
	mustProgram(t, p, 0, 3)
	if _, err := p.ProgramPages(0, 4, ppb-4); err != nil || p.WritePointer(0) != ppb {
		t.Fatalf("filling the block: %v, write pointer %d", err, p.WritePointer(0))
	}
}

func TestEraseResetsBlock(t *testing.T) {
	p := newTestPackage(t)
	for i := 0; i < 64; i++ {
		mustProgram(t, p, 3, i)
	}
	if _, err := p.ProgramPages(3, 0, 1); err == nil {
		t.Fatal("programmed into full block")
	}
	d, err := p.EraseBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1500*sim.Microsecond {
		t.Fatalf("erase time = %v", d)
	}
	if p.EraseCount(3) != 1 {
		t.Fatalf("erase count = %d", p.EraseCount(3))
	}
	mustProgram(t, p, 3, 0) // usable again from page 0
}

func TestWearOut(t *testing.T) {
	p, err := NewPackage(testGeom(), TimingFor(SLC), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.EraseBlock(7); err != nil {
			t.Fatalf("erase %d: %v", i, err)
		}
	}
	if _, err := p.EraseBlock(7); !errors.Is(err, ErrWornOut) {
		t.Fatalf("err = %v, want ErrWornOut", err)
	}
	// Other blocks unaffected.
	if _, err := p.EraseBlock(8); err != nil {
		t.Fatalf("unworn block erase failed: %v", err)
	}
}

func TestOutOfRange(t *testing.T) {
	p := newTestPackage(t)
	cases := []func() error{
		func() error { _, err := p.ReadPage(-1, 0); return err },
		func() error { _, err := p.ReadPage(32, 0); return err },
		func() error { _, err := p.ProgramPages(0, 64, 1); return err },
		func() error { _, err := p.ProgramPages(0, -1, 1); return err },
		func() error { _, err := p.EraseBlock(99); return err },
	}
	for i, f := range cases {
		if err := f(); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("case %d: err = %v, want ErrOutOfRange", i, err)
		}
	}
}

func TestWearStats(t *testing.T) {
	p := newTestPackage(t)
	for i := 0; i < 5; i++ {
		if _, err := p.EraseBlock(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.EraseBlock(1); err != nil {
		t.Fatal(err)
	}
	ws := p.Wear()
	if ws.Min != 0 || ws.Max != 5 || ws.Total != 6 {
		t.Fatalf("wear = %+v", ws)
	}
}

// Property: any sequence of in-order programs and erases keeps the write
// pointer within [0, PagesPerBlock] and the erase count non-decreasing.
func TestPackageInvariantProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		p, err := NewPackage(Geometry{PageSize: 512, PagesPerBlock: 8, BlocksPerPackage: 4}, TimingFor(SLC), 1000)
		if err != nil {
			return false
		}
		for _, op := range ops {
			b := int(op>>2) % 4
			switch op % 3 {
			case 0: // program at write pointer (may fail when full; fine)
				wp := p.WritePointer(b)
				if wp < 8 {
					if _, err := p.ProgramPages(b, wp, 1); err != nil {
						return false
					}
				}
			case 1:
				if _, err := p.EraseBlock(b); err != nil {
					return false
				}
			case 2:
				wp := p.WritePointer(b)
				if wp > 0 {
					if _, err := p.ReadPage(b, wp-1); err != nil {
						return false
					}
				}
			}
			if p.WritePointer(b) < 0 || p.WritePointer(b) > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}
