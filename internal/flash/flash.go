// Package flash models the NAND flash medium underneath the FTL: package
// geometry, SLC/MLC timing and endurance, and the physical constraints
// the translation layer must respect — erase-before-program, strictly
// in-order page programming within a block, and a finite erase budget per
// block. Timing numbers follow the Samsung SLC part used by Agrawal et
// al.'s simulator (the substrate of the paper under reproduction) and a
// contemporaneous MLC part.
package flash

import (
	"errors"
	"fmt"

	"ossd/internal/sim"
)

// CellType selects the memory technology of a package.
type CellType int

const (
	// SLC stores one bit per cell: fast, durable, small.
	SLC CellType = iota
	// MLC stores multiple bits per cell: dense, slower writes and erases,
	// an order of magnitude fewer erase cycles.
	MLC
)

func (c CellType) String() string {
	if c == MLC {
		return "MLC"
	}
	return "SLC"
}

// Timing holds the latency parameters of a flash package.
type Timing struct {
	// PageRead is the cell-array-to-register read latency.
	PageRead sim.Time
	// PageProgram is the register-to-cell-array program latency.
	PageProgram sim.Time
	// BlockErase is the block erase latency.
	BlockErase sim.Time
	// BusPerByte is the serial transfer cost per byte between the
	// controller and the package register (shared-bus cost).
	BusPerByte sim.Time
}

// TimingFor returns the canonical timing for a cell type.
//
// SLC: 25 us read, 200 us program, 1.5 ms erase (Samsung K9XXG08UXM).
// MLC: 50 us read, 800 us program, 3.3 ms erase.
// Both use a 40 MB/s package bus (25 ns/byte).
func TimingFor(c CellType) Timing {
	switch c {
	case MLC:
		return Timing{
			PageRead:    50 * sim.Microsecond,
			PageProgram: 800 * sim.Microsecond,
			BlockErase:  3300 * sim.Microsecond,
			BusPerByte:  25 * sim.Nanosecond,
		}
	default:
		return Timing{
			PageRead:    25 * sim.Microsecond,
			PageProgram: 200 * sim.Microsecond,
			BlockErase:  1500 * sim.Microsecond,
			BusPerByte:  25 * sim.Nanosecond,
		}
	}
}

// EraseBudgetFor returns the endurance (erase cycles per block) of a cell
// type: 100 K for SLC, 10 K for MLC.
func EraseBudgetFor(c CellType) int {
	if c == MLC {
		return 10_000
	}
	return 100_000
}

// Geometry describes the physical layout of one flash package.
type Geometry struct {
	// PageSize in bytes (typically 4096).
	PageSize int
	// PagesPerBlock (typically 64).
	PagesPerBlock int
	// BlocksPerPackage across all dies and planes.
	BlocksPerPackage int
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.PageSize <= 0 || g.PagesPerBlock <= 0 || g.BlocksPerPackage <= 0 {
		return fmt.Errorf("flash: invalid geometry %+v", g)
	}
	return nil
}

// Pages returns the total number of physical pages in a package.
func (g Geometry) Pages() int { return g.PagesPerBlock * g.BlocksPerPackage }

// Errors surfaced by the medium. The FTL treats all of these as
// programming bugs except ErrWornOut, which is a genuine device lifetime
// event used by the failure-injection tests.
var (
	ErrOutOfRange    = errors.New("flash: address out of range")
	ErrNotErased     = errors.New("flash: programming a non-erased page")
	ErrOutOfOrder    = errors.New("flash: pages must be programmed in order within a block")
	ErrWornOut       = errors.New("flash: block exceeded its erase budget")
	ErrReadUnwritten = errors.New("flash: reading an unwritten page")
)

// Package is one flash package: the unit of parallelism in the SSD. It
// enforces NAND programming constraints and tracks per-block wear.
type Package struct {
	geom        Geometry
	timing      Timing
	eraseBudget int

	// blocks holds each block's state in one allocation; the zero value
	// is a fresh, fully erased block.
	blocks     []block
	retiredCnt int
}

// block is one erase block's state.
type block struct {
	// writePtr is the next programmable page index; a block with
	// writePtr == PagesPerBlock is full.
	writePtr int32
	erases   int32
	// retired marks a block taken out of circulation by the FTL's
	// wear-ceiling retirement; it keeps its erase count but no longer
	// participates in wear statistics.
	retired bool
}

// NewPackage builds a fully-erased package.
func NewPackage(geom Geometry, timing Timing, eraseBudget int) (*Package, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if eraseBudget <= 0 {
		return nil, fmt.Errorf("flash: erase budget must be positive, got %d", eraseBudget)
	}
	return &Package{
		geom:        geom,
		timing:      timing,
		eraseBudget: eraseBudget,
		blocks:      make([]block, geom.BlocksPerPackage),
	}, nil
}

func (p *Package) checkBlock(block int) error {
	if block < 0 || block >= p.geom.BlocksPerPackage {
		return fmt.Errorf("%w: block %d of %d", ErrOutOfRange, block, p.geom.BlocksPerPackage)
	}
	return nil
}

func (p *Package) checkPage(block, page int) error {
	if err := p.checkBlock(block); err != nil {
		return err
	}
	if page < 0 || page >= p.geom.PagesPerBlock {
		return fmt.Errorf("%w: page %d of %d", ErrOutOfRange, page, p.geom.PagesPerBlock)
	}
	return nil
}

// busTime is the serial transfer cost for n bytes.
func (p *Package) busTime(n int) sim.Time {
	return sim.Time(n) * p.timing.BusPerByte
}

// ReadPage returns the service time of reading one physical page,
// including bus transfer. Reading a page that was never programmed since
// the last erase returns ErrReadUnwritten: the FTL should never do it.
func (p *Package) ReadPage(block, page int) (sim.Time, error) {
	if err := p.checkPage(block, page); err != nil {
		return 0, err
	}
	if int32(page) >= p.blocks[block].writePtr {
		return 0, fmt.Errorf("%w: block %d page %d", ErrReadUnwritten, block, page)
	}
	return p.timing.PageRead + p.busTime(p.geom.PageSize), nil
}

// ProgramPages programs n pages of a block, starting at page, and
// returns their service time including bus transfer. NAND constraint:
// pages program in order, so page must be exactly the block's write
// pointer, and the run must fit in the block. A run that breaks either
// rule programs nothing.
func (p *Package) ProgramPages(block, page, n int) (sim.Time, error) {
	if err := p.checkPage(block, page); err != nil {
		return 0, err
	}
	if n < 1 || page+n > p.geom.PagesPerBlock {
		return 0, fmt.Errorf("%w: %d pages from block %d page %d", ErrOutOfRange, n, block, page)
	}
	b := &p.blocks[block]
	wp := b.writePtr
	if int32(page) < wp {
		return 0, fmt.Errorf("%w: block %d page %d already programmed", ErrNotErased, block, page)
	}
	if int32(page) > wp {
		return 0, fmt.Errorf("%w: block %d page %d, expected %d", ErrOutOfOrder, block, page, wp)
	}
	b.writePtr = wp + int32(n)
	return sim.Time(n) * (p.timing.PageProgram + p.busTime(p.geom.PageSize)), nil
}

// EraseBlock erases a block and returns its service time. Erasing beyond
// the budget returns ErrWornOut and leaves the block unusable (its state
// is not reset), modeling permanent wear-out.
func (p *Package) EraseBlock(block int) (sim.Time, error) {
	if err := p.checkBlock(block); err != nil {
		return 0, err
	}
	b := &p.blocks[block]
	if int(b.erases) >= p.eraseBudget {
		return 0, fmt.Errorf("%w: block %d at %d cycles", ErrWornOut, block, b.erases)
	}
	b.erases++
	b.writePtr = 0
	return p.timing.BlockErase, nil
}

// RetireBlock marks a block retired: the FTL pulled it from circulation
// at its wear ceiling. The block keeps its erase count and write pointer
// (its contents are simply abandoned) and drops out of Wear statistics.
func (p *Package) RetireBlock(block int) error {
	if err := p.checkBlock(block); err != nil {
		return err
	}
	if b := &p.blocks[block]; !b.retired {
		b.retired = true
		p.retiredCnt++
	}
	return nil
}

// Retired reports how many blocks have been retired.
func (p *Package) Retired() int { return p.retiredCnt }

// WritePointer reports the next programmable page index of a block.
func (p *Package) WritePointer(block int) int { return int(p.blocks[block].writePtr) }

// EraseCount reports the erase cycles consumed by a block.
func (p *Package) EraseCount(block int) int { return int(p.blocks[block].erases) }

// WearStats summarizes wear across blocks: min/max/total erase counts.
type WearStats struct {
	Min, Max int
	Total    int64
}

// Wear computes the package wear summary over blocks still in
// circulation; retired blocks sit at their ceiling and would otherwise
// pin Max (and mislead wear-aware victim selection) forever.
func (p *Package) Wear() WearStats {
	ws := WearStats{Min: int(^uint(0) >> 1)}
	live := 0
	for _, b := range p.blocks {
		if b.retired {
			continue
		}
		live++
		v := int(b.erases)
		if v < ws.Min {
			ws.Min = v
		}
		if v > ws.Max {
			ws.Max = v
		}
		ws.Total += int64(v)
	}
	if live == 0 {
		ws.Min = 0
	}
	return ws
}
