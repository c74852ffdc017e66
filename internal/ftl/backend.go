package ftl

import (
	"fmt"

	"ossd/internal/flash"
	"ossd/internal/sim"
)

// Backend is the interface the device layer drives. Three schemes
// implement it:
//
//   - Element (page-mapped, log-structured): the paper's FTL.
//   - Block (block-mapped): the cheapest mapping table; partial-block
//     writes pay a full-block read-merge-write, the behaviour the paper's
//     §3.4 "read-modify-erase-write cycle" describes.
//   - Hybrid (log-block, FAST-style): block-mapped data blocks plus a
//     small pool of page-mapped log blocks absorbing out-of-place
//     writes, merged on eviction.
//
// The scheme comparison is itself a reproduction target: the three
// designs bracket the random-write behaviours seen across the paper's
// engineering samples.
type Backend interface {
	// WritePages services a host write of the n >= 1 logical pages from
	// lpn, one element's run of a device request, in address order. A
	// run that does not fit the logical space fails before writing
	// anything. Otherwise it writes until it finishes or hits its first
	// error, and returns the time of what it did.
	WritePages(lpn, n int) (sim.Time, error)
	// ReadPage services a host read of one logical page.
	ReadPage(lpn int) (sim.Time, error)
	// Free is the deallocation notification for one logical page.
	Free(lpn int) error
	// Mapped reports whether the logical page has live data.
	Mapped(lpn int) bool
	// LogicalPages is the exported capacity in pages.
	LogicalPages() int
	// FreeFraction reports erased, writable pages / physical pages.
	FreeFraction() float64
	// CanClean reports whether a cleaning pass could reclaim space.
	CanClean() bool
	// CleanOnce performs one cleaning pass.
	CleanOnce() (sim.Time, error)
	// Stats returns the accumulated counters.
	Stats() Stats
	// Wear returns the wear summary.
	Wear() flash.WearStats
	// CheckInvariants validates internal consistency (for tests).
	CheckInvariants() error
}

// Scheme names a mapping scheme.
type Scheme int

const (
	// PageMapped is the log-structured page-mapping FTL (Element).
	PageMapped Scheme = iota
	// BlockMapped is the coarse block-mapping FTL.
	BlockMapped
	// HybridLog is the FAST-style log-block FTL.
	HybridLog
)

func (s Scheme) String() string {
	switch s {
	case BlockMapped:
		return "block-mapped"
	case HybridLog:
		return "hybrid-log"
	default:
		return "page-mapped"
	}
}

// ParseScheme maps a scheme's short name, as the command line and job
// specs spell it ("page", "block" or "hybrid"), to the Scheme.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "page":
		return PageMapped, nil
	case "block":
		return BlockMapped, nil
	case "hybrid":
		return HybridLog, nil
	}
	return 0, fmt.Errorf("ftl: unknown scheme %q", name)
}

// NewBackend builds the requested scheme over the given configuration.
func NewBackend(scheme Scheme, cfg Config) (Backend, error) {
	switch scheme {
	case PageMapped:
		return NewElement(cfg)
	case BlockMapped:
		return NewBlock(cfg)
	case HybridLog:
		return NewHybrid(cfg)
	default:
		return nil, fmt.Errorf("ftl: unknown scheme %d", scheme)
	}
}

// core is what every scheme shares: its configuration, its package, the
// exported capacity and the counters.
type core struct {
	cfg Config
	pkg *flash.Package

	ppb     int // pages per block
	logical int // exported logical pages

	stats Stats
}

// newCore validates the geometry, defaults the erase budget, and builds
// a fresh package of at least minBlocks blocks.
func newCore(cfg Config, minBlocks int) (core, error) {
	if err := cfg.Geom.Validate(); err != nil {
		return core{}, err
	}
	if cfg.EraseBudget == 0 {
		cfg.EraseBudget = flash.EraseBudgetFor(flash.SLC)
	}
	if cfg.Geom.BlocksPerPackage < minBlocks {
		return core{}, fmt.Errorf("ftl: need at least %d blocks, got %d", minBlocks, cfg.Geom.BlocksPerPackage)
	}
	pkg, err := flash.NewPackage(cfg.Geom, cfg.Timing, cfg.EraseBudget)
	if err != nil {
		return core{}, err
	}
	return core{cfg: cfg, pkg: pkg, ppb: cfg.Geom.PagesPerBlock}, nil
}

// LogicalPages implements Backend.
func (c *core) LogicalPages() int { return c.logical }

// Stats implements Backend.
func (c *core) Stats() Stats { return c.stats }

// Wear implements Backend.
func (c *core) Wear() flash.WearStats { return c.pkg.Wear() }

func (c *core) checkLPN(lpn int) error {
	if lpn < 0 || lpn >= c.logical {
		return fmt.Errorf("%w: lpn %d of %d", ErrOutOfRange, lpn, c.logical)
	}
	return nil
}

// checkRun checks a WritePages run: at least one page, all in range.
func (c *core) checkRun(lpn, n int) error {
	if lpn < 0 || n < 1 || lpn+n > c.logical {
		return fmt.Errorf("%w: %d pages from lpn %d of %d", ErrOutOfRange, n, lpn, c.logical)
	}
	return nil
}

// zeroRead is the cost of reading a page with no live copy: the
// controller synthesizes zeros and pays only the bus transfer.
func (c *core) zeroRead() sim.Time {
	return sim.Time(c.cfg.Geom.PageSize) * c.cfg.Timing.BusPerByte
}

// unmapped is the page or block number a pageMap reads for an entry
// that holds nothing.
const unmapped = int32(-1)

// pageMap maps page or block numbers to page or block numbers. It stores
// every entry complemented, so a freshly allocated map, all zeros, reads
// unmapped everywhere: building a backend costs its allocations and no
// pass over its pages. get and set are the only way in or out.
type pageMap []int32

// get returns entry i, or unmapped.
func (m pageMap) get(i int) int32 { return ^m[i] }

// set stores v (unmapped clears the entry) at i.
func (m pageMap) set(i int, v int32) { m[i] = ^v }

// carve cuts the next n entries off *backing. The slice is capped at n,
// so appending to it never writes into the next one carved.
func carve[E any](backing *[]E, n int) []E {
	s := (*backing)[:n:n]
	*backing = (*backing)[n:]
	return s
}

// Compile-time interface checks.
var (
	_ Backend = (*Element)(nil)
	_ Backend = (*Block)(nil)
	_ Backend = (*Hybrid)(nil)
)
