package ftl

import (
	"fmt"

	"ossd/internal/sim"
)

// blockCore is the skeleton Block and Hybrid share: one physical data
// block per logical block, per-page host flags, and the free list. Each
// scheme keeps a pool of newer copies on top of it (Block's replacement
// blocks, Hybrid's log blocks) and plugs two functions into the core:
// where a live page's newest copy is, and how to hand back a block when
// the free list runs dry.
type blockCore struct {
	core

	// dataMap maps lbn -> physical data block, each block number stored
	// complemented (see pageMap): a zero entry is unmapped, so a fresh
	// map has no data blocks.
	dataMap pageMap
	// written marks logical pages the host has stored (rebuilds program
	// padding pages to keep blocks in order; those must not read back
	// as live data). dead marks informed-freed pages. Both start all
	// false, carved from one backing.
	written, dead []bool
	freeBlocks    []int

	// locate returns the block and page holding lpn's newest copy.
	locate func(lpn int) (block, page int)
	// refill returns one block to the free list, or fails with
	// ErrNoSpace when the scheme holds none it can give back.
	refill func() (sim.Time, error)
}

// newBlockCore builds the shared state for logicalBlocks logical
// blocks; every physical block starts free.
func newBlockCore(cfg Config, minBlocks, logicalBlocks int) (blockCore, error) {
	c, err := newCore(cfg, minBlocks)
	if err != nil {
		return blockCore{}, err
	}
	if logicalBlocks < 1 {
		return blockCore{}, fmt.Errorf("ftl: geometry too small for overprovisioning")
	}
	c.logical = logicalBlocks * c.ppb
	flags := make([]bool, 2*c.logical)
	bc := blockCore{
		core:       c,
		dataMap:    make(pageMap, logicalBlocks),
		written:    carve(&flags, c.logical),
		dead:       carve(&flags, c.logical),
		freeBlocks: make([]int, cfg.Geom.BlocksPerPackage),
	}
	// Every block queues free, in descending order.
	for i := range bc.freeBlocks {
		bc.freeBlocks[i] = len(bc.freeBlocks) - 1 - i
	}
	return bc, nil
}

// Mapped implements Backend.
func (c *blockCore) Mapped(lpn int) bool {
	return lpn >= 0 && lpn < c.logical && c.written[lpn] && !c.dead[lpn]
}

// ReadPage implements Backend: the newest copy wins.
func (c *blockCore) ReadPage(lpn int) (sim.Time, error) {
	if err := c.checkLPN(lpn); err != nil {
		return 0, err
	}
	c.stats.HostReads++
	if !c.Mapped(lpn) {
		return c.zeroRead(), nil
	}
	return c.pkg.ReadPage(c.locate(lpn))
}

// writePages is WritePages for a scheme that writes page by page:
// write is the scheme's body for one page, whose run is already
// checked.
func (c *blockCore) writePages(lpn, n int, write func(lpn int) (sim.Time, error)) (sim.Time, error) {
	if err := c.checkRun(lpn, n); err != nil {
		return 0, err
	}
	var total sim.Time
	for end := lpn + n; lpn < end; lpn++ {
		d, err := write(lpn)
		total += d
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// hostWrite counts a host write of lpn and marks the page live,
// returning its logical block and offset.
func (c *blockCore) hostWrite(lpn int) (lbn, off int) {
	c.stats.HostWrites++
	c.written[lpn] = true
	c.dead[lpn] = false
	return lpn / c.ppb, lpn % c.ppb
}

// kill counts a free notification and, in informed mode, marks a live
// page dead so rebuilds skip it. It reports whether a page died.
func (c *blockCore) kill(lpn int) (bool, error) {
	if err := c.checkLPN(lpn); err != nil {
		return false, err
	}
	c.stats.FreesSeen++
	if !c.cfg.Informed || !c.Mapped(lpn) {
		return false, nil
	}
	c.dead[lpn] = true
	c.stats.FreesApplied++
	return true, nil
}

// allocBlock takes the oldest free block, first refilling the free
// list while it is empty. The refill time is returned with the block;
// refilling charges its own cleaning stats.
func (c *blockCore) allocBlock() (int, sim.Time, error) {
	var total sim.Time
	for len(c.freeBlocks) == 0 {
		d, err := c.refill()
		total += d
		if err != nil {
			return 0, total, err
		}
	}
	pb := c.freeBlocks[0]
	c.freeBlocks = c.freeBlocks[1:]
	return pb, total, nil
}

// release erases pb and returns it to the free list.
func (c *blockCore) release(pb int) (sim.Time, error) {
	d, err := c.pkg.EraseBlock(pb)
	if err != nil {
		return d, err
	}
	c.freeBlocks = append(c.freeBlocks, pb)
	c.stats.GCErases++
	return d, nil
}

// rebuild writes pages [from, top) of logical block lbn into dst, in
// order: each page copies the live copy src names (block -1: nothing to
// copy) and is programmed either way to keep dst in order. dst then
// replaces lbn's data block, which is erased and released.
func (c *blockCore) rebuild(lbn, dst, from, top int, src func(k int) (block, page int)) (sim.Time, error) {
	var total sim.Time
	for k := from; k < top; k++ {
		lpn := lbn*c.ppb + k
		if pb, pg := src(k); pb != -1 && c.written[lpn] && !c.dead[lpn] {
			d, err := c.pkg.ReadPage(pb, pg)
			total += d
			if err != nil {
				return total, err
			}
			c.stats.PagesMoved++
		}
		d, err := c.pkg.ProgramPages(dst, k, 1)
		total += d
		if err != nil {
			return total, err
		}
	}
	if old := c.dataMap.get(lbn); old != unmapped {
		d, err := c.release(int(old))
		total += d
		if err != nil {
			return total, err
		}
	}
	c.dataMap.set(lbn, int32(dst))
	return total, nil
}

// noCopy is the rebuild source of a block with nothing to copy.
func noCopy(int) (int, int) { return -1, 0 }

// checkBlocks validates what both block-mapped schemes share: each
// physical block is a data block, one of the scheme's pool blocks or
// free, never two of these; free blocks are erased; and every mapped
// page's newest copy lies below its block's write pointer.
func (c *blockCore) checkBlocks(pool []int) error {
	role := make(map[int]string)
	claim := func(pb int, r string) error {
		if pb < 0 || pb >= c.cfg.Geom.BlocksPerPackage {
			return fmt.Errorf("%s block %d out of range", r, pb)
		}
		if prev, ok := role[pb]; ok {
			return fmt.Errorf("block %d is both %s and %s", pb, prev, r)
		}
		role[pb] = r
		return nil
	}
	for _, pb := range pool {
		if err := claim(pb, "pool"); err != nil {
			return err
		}
	}
	for lbn := range c.dataMap {
		pb := c.dataMap.get(lbn)
		if pb == unmapped {
			continue
		}
		if err := claim(int(pb), fmt.Sprintf("data(%d)", lbn)); err != nil {
			return err
		}
	}
	for _, pb := range c.freeBlocks {
		if err := claim(pb, "free"); err != nil {
			return err
		}
		if c.pkg.WritePointer(pb) != 0 {
			return fmt.Errorf("free block %d not erased", pb)
		}
	}
	for lpn := range c.written {
		if !c.Mapped(lpn) {
			continue
		}
		if pb, pg := c.locate(lpn); pb == -1 || pg >= c.pkg.WritePointer(pb) {
			return fmt.Errorf("lpn %d is mapped but block %d page %d is unwritten", lpn, pb, pg)
		}
	}
	return nil
}
