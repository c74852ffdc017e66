package ftl

import (
	"fmt"

	"ossd/internal/sim"
)

// Block is a block-mapped FTL: the mapping table has one entry per
// logical *block* (PagesPerBlock pages), which is why early, cheap
// controllers used it — the table fits in tiny SRAM. The cost is the
// paper's §3.4 "read-modify-erase-write cycle": any write that does not
// extend the block sequentially rewrites the whole block into a fresh
// erase unit.
type Block struct {
	blockCore

	// repl holds open replacement blocks: a sequential overwrite starting
	// at page 0 appends to a fresh block, and a "switch merge" retires
	// the old block when the replacement completes (or is closed). This
	// is what keeps sequential overwrites cheap on block-mapped FTLs.
	repl      map[int]int32 // lbn -> physical block
	replOrder []int         // open order, for bounded-pool eviction
}

// maxReplacementBlocks bounds concurrently open replacement blocks, like
// the small SRAM-tracked set a real controller keeps.
const maxReplacementBlocks = 4

// NewBlock builds a block-mapped FTL over a fresh package.
func NewBlock(cfg Config) (*Block, error) {
	// One spare block for the merge destination; the rest are logical.
	logicalBlocks := cfg.Geom.BlocksPerPackage - 1
	if op := int(float64(cfg.Geom.BlocksPerPackage) * cfg.Overprovision); op > 1 {
		logicalBlocks = cfg.Geom.BlocksPerPackage - op
	}
	bc, err := newBlockCore(cfg, 3, logicalBlocks)
	if err != nil {
		return nil, err
	}
	b := &Block{blockCore: bc, repl: make(map[int]int32)}
	b.locate, b.refill = b.newest, b.closeOldest
	return b, nil
}

// FreeFraction implements Backend.
func (b *Block) FreeFraction() float64 {
	free := len(b.freeBlocks) * b.ppb
	for _, rp := range b.repl {
		free += b.ppb - b.pkg.WritePointer(int(rp))
	}
	return float64(free) / float64(b.cfg.Geom.Pages())
}

// CanClean implements Backend: block mapping merges inline, there is no
// deferred garbage.
func (b *Block) CanClean() bool { return false }

// CleanOnce implements Backend.
func (b *Block) CleanOnce() (sim.Time, error) { return 0, ErrNoSpace }

// newest locates lpn's newest copy: the replacement block holds the
// newest copies of its prefix, the data block the rest.
func (b *Block) newest(lpn int) (int, int) {
	lbn, off := lpn/b.ppb, lpn%b.ppb
	if rp, ok := b.repl[lbn]; ok && off < b.pkg.WritePointer(int(rp)) {
		return int(rp), off
	}
	return int(b.dataMap.get(lbn)), off
}

// WritePages implements Backend, one page at a time.
func (b *Block) WritePages(lpn, n int) (sim.Time, error) {
	return b.writePages(lpn, n, b.writePage)
}

// writePage writes one page. Sequential extension programs in place;
// anything else is a full-block read-merge-write into a fresh block.
func (b *Block) writePage(lpn int) (sim.Time, error) {
	lbn, off := b.hostWrite(lpn)
	// Append to an open replacement block when the write continues it.
	if rp, ok := b.repl[lbn]; ok {
		if b.pkg.WritePointer(int(rp)) == off {
			d, err := b.pkg.ProgramPages(int(rp), off, 1)
			if err != nil {
				return d, err
			}
			if off == b.ppb-1 {
				d2, err := b.closeReplacement(lbn)
				return d + d2, err
			}
			return d, nil
		}
		// Out-of-order against the replacement: close it, then retry the
		// write against the merged block.
		d, err := b.closeReplacement(lbn)
		if err != nil {
			return d, err
		}
		b.stats.HostWrites-- // the recursive call re-counts
		d2, err := b.writePage(lpn)
		return d + d2, err
	}
	pb := b.dataMap.get(lbn)
	if pb != unmapped && b.pkg.WritePointer(int(pb)) == off {
		return b.pkg.ProgramPages(int(pb), off, 1)
	}
	// A rewrite starting at page 0 of a mapped block opens a replacement
	// block: sequential overwrites then cost one program per page.
	if pb != unmapped && off == 0 {
		d, err := b.openReplacement(lbn)
		if err != nil {
			return d, err
		}
		if rp, ok := b.repl[lbn]; ok {
			d2, err := b.pkg.ProgramPages(int(rp), 0, 1)
			return d + d2, err
		}
		// No block to spare for a replacement: merge instead.
		d2, err := b.merge(lbn, 0)
		return d + d2, err
	}
	if pb == unmapped {
		// First write: a fresh block, with any gap before off padded
		// (the controller writes zeros to satisfy in-order programming).
		npb, d0, err := b.allocBlock()
		if err != nil {
			return d0, err
		}
		d, err := b.rebuild(lbn, npb, 0, off+1, noCopy)
		return d0 + d, err
	}
	return b.merge(lbn, off)
}

// openReplacement allocates a replacement block for lbn, closing the
// oldest open replacements while the pool is full or the free list is
// down to the merge spare. When that leaves no block to spare it opens
// nothing, and the caller merges instead.
func (b *Block) openReplacement(lbn int) (sim.Time, error) {
	var total sim.Time
	for len(b.replOrder) > 0 && (len(b.replOrder) >= maxReplacementBlocks || len(b.freeBlocks) < 2) {
		d, err := b.closeReplacement(b.replOrder[0])
		total += d
		if err != nil {
			return total, err
		}
	}
	if len(b.freeBlocks) < 2 {
		return total, nil
	}
	npb, _, err := b.allocBlock()
	if err != nil {
		return total, err
	}
	b.repl[lbn] = int32(npb)
	b.replOrder = append(b.replOrder, lbn)
	return total, nil
}

// dropReplacement forgets lbn's open replacement block and returns it.
func (b *Block) dropReplacement(lbn int) (int32, bool) {
	rp, ok := b.repl[lbn]
	if !ok {
		return 0, false
	}
	delete(b.repl, lbn)
	for i, l := range b.replOrder {
		if l == lbn {
			b.replOrder = append(b.replOrder[:i], b.replOrder[i+1:]...)
			break
		}
	}
	return rp, true
}

// closeOldest closes the oldest open replacement, which releases its
// old data block; it is the core's refill step.
func (b *Block) closeOldest() (sim.Time, error) {
	if len(b.replOrder) == 0 {
		return 0, ErrNoSpace
	}
	return b.closeReplacement(b.replOrder[0])
}

// closeReplacement finalizes lbn's replacement block: pages beyond its
// write pointer are copied from the old block (a partial merge; a full
// replacement is a free "switch merge"), the old block is erased, and
// the replacement becomes the data block.
func (b *Block) closeReplacement(lbn int) (sim.Time, error) {
	rp, ok := b.dropReplacement(lbn)
	if !ok {
		return 0, nil
	}
	old := int(b.dataMap.get(lbn))
	total, err := b.rebuild(lbn, int(rp), b.pkg.WritePointer(int(rp)), b.pkg.WritePointer(old),
		func(k int) (int, int) { return old, k })
	if err != nil {
		return total, err
	}
	b.stats.Cleans++
	b.stats.CleanTime += total
	return total, nil
}

// merge rewrites logical block lbn into a fresh physical block with page
// `off` replaced by new data, then erases the old block. The extra page
// copies and the erase are charged as cleaning work.
func (b *Block) merge(lbn, off int) (sim.Time, error) {
	old := int(b.dataMap.get(lbn))
	oldWP := b.pkg.WritePointer(old)
	top := max(oldWP, off+1)
	npb, d0, err := b.allocBlock()
	if err != nil {
		return d0, err
	}
	total, err := b.rebuild(lbn, npb, 0, top, func(k int) (int, int) {
		if k == off || k >= oldWP {
			return -1, 0
		}
		return old, k
	})
	if err != nil {
		return d0 + total, err
	}
	b.stats.Cleans++
	// The host page itself is not cleaning work; the rest of the merge is.
	b.stats.CleanTime += total - b.cfg.Timing.PageProgram
	return d0 + total, nil
}

// Free implements Backend. Informed mode marks pages dead so merges skip
// them; whole-dead blocks are reclaimed immediately.
func (b *Block) Free(lpn int) error {
	if died, err := b.kill(lpn); !died {
		return err
	}
	lbn := lpn / b.ppb
	for k := 0; k < b.ppb; k++ {
		if b.Mapped(lbn*b.ppb + k) {
			return nil
		}
	}
	// Every live page of the block is dead: release the data block and
	// any open replacement.
	if rp, ok := b.dropReplacement(lbn); ok {
		if _, err := b.release(int(rp)); err != nil {
			return err
		}
	}
	if old := b.dataMap.get(lbn); old != unmapped {
		if _, err := b.release(int(old)); err != nil {
			return err
		}
		b.dataMap.set(lbn, unmapped)
		for k := 0; k < b.ppb; k++ {
			b.written[lbn*b.ppb+k] = false
			b.dead[lbn*b.ppb+k] = false
		}
	}
	return nil
}

// CheckInvariants implements Backend.
func (b *Block) CheckInvariants() error {
	pool := make([]int, 0, len(b.replOrder))
	for _, lbn := range b.replOrder {
		rp, ok := b.repl[lbn]
		if !ok || b.dataMap.get(lbn) == unmapped {
			return fmt.Errorf("lbn %d: replacement open without one or without a data block", lbn)
		}
		pool = append(pool, int(rp))
	}
	if len(pool) != len(b.repl) {
		return fmt.Errorf("replacement map/order out of sync: %d vs %d", len(b.repl), len(pool))
	}
	return b.checkBlocks(pool)
}
