package ftl

import (
	"fmt"
	"sort"

	"ossd/internal/sim"
)

// Hybrid is a FAST-style log-block FTL: data blocks are block-mapped (so
// the mapping table stays small), and a small pool of page-mapped log
// blocks absorbs writes that cannot extend a data block in place. When
// the pool fills, the oldest log block is merged: every logical block
// with copies in it is rebuilt into a fresh physical block. Hybrid FTLs
// sit between the page-mapped and block-mapped extremes on random-write
// cost, which is exactly where most 2009-era consumer SSDs lived.
type Hybrid struct {
	blockCore

	// logMap holds the newest out-of-place copy per lpn.
	logMap map[int]logLoc
	// logBlocks is the allocation order of live log blocks (oldest
	// first); owners[block] maps each page slot of a log block to the
	// lpn it holds, zero (unmapped) until programmed.
	logBlocks []int
	owners    map[int]pageMap

	maxLog int
}

type logLoc struct {
	block int
	page  int
}

// NewHybrid builds a hybrid log-block FTL. The log pool is the
// over-provisioned share of blocks (minimum 2, plus one merge spare).
func NewHybrid(cfg Config) (*Hybrid, error) {
	maxLog := max(int(float64(cfg.Geom.BlocksPerPackage)*cfg.Overprovision), 2)
	bc, err := newBlockCore(cfg, 6, cfg.Geom.BlocksPerPackage-maxLog-1) // one merge spare
	if err != nil {
		return nil, err
	}
	h := &Hybrid{
		blockCore: bc,
		logMap:    make(map[int]logLoc),
		owners:    make(map[int]pageMap),
		maxLog:    maxLog,
	}
	h.locate = h.newest
	// The pool sizes leave a merge spare at every allocation, so the
	// free list never runs dry mid-operation.
	h.refill = func() (sim.Time, error) { return 0, ErrNoSpace }
	return h, nil
}

// FreeFraction implements Backend.
func (h *Hybrid) FreeFraction() float64 {
	free := len(h.freeBlocks) * h.ppb
	if n := len(h.logBlocks); n > 0 {
		cur := h.logBlocks[n-1]
		free += h.ppb - h.pkg.WritePointer(cur)
	}
	return float64(free) / float64(h.cfg.Geom.Pages())
}

// CanClean reports whether evicting a log block could reclaim space.
func (h *Hybrid) CanClean() bool { return len(h.logBlocks) > 1 }

// CleanOnce evicts the oldest log block.
func (h *Hybrid) CleanOnce() (sim.Time, error) {
	if len(h.logBlocks) == 0 {
		return 0, ErrNoSpace
	}
	return h.evictOldest()
}

// newest locates lpn's newest copy: a log copy wins over the data block.
func (h *Hybrid) newest(lpn int) (int, int) {
	if loc, ok := h.logMap[lpn]; ok {
		return loc.block, loc.page
	}
	return int(h.dataMap.get(lpn / h.ppb)), lpn % h.ppb
}

// WritePages implements Backend, one page at a time.
func (h *Hybrid) WritePages(lpn, n int) (sim.Time, error) {
	return h.writePages(lpn, n, h.writePage)
}

// writePage writes one page: in place when it extends its data block,
// else to the log.
func (h *Hybrid) writePage(lpn int) (sim.Time, error) {
	lbn, off := h.hostWrite(lpn)
	pb := h.dataMap.get(lbn)
	// In-place sequential extension of the data block, but only when no
	// newer log copy would be shadowed.
	if _, logged := h.logMap[lpn]; !logged {
		if pb != unmapped && h.pkg.WritePointer(int(pb)) == off {
			return h.pkg.ProgramPages(int(pb), off, 1)
		}
		if pb == unmapped && off == 0 {
			npb, d0, err := h.allocBlock()
			if err != nil {
				return d0, err
			}
			d, err := h.rebuild(lbn, npb, 0, 1, noCopy)
			return d0 + d, err
		}
	}
	return h.logWrite(lpn)
}

// logWrite appends the page to the current log block, evicting the
// oldest log block first if the pool is exhausted.
func (h *Hybrid) logWrite(lpn int) (sim.Time, error) {
	var total sim.Time
	cur := -1
	if n := len(h.logBlocks); n > 0 {
		if c := h.logBlocks[n-1]; h.pkg.WritePointer(c) < h.ppb {
			cur = c
		}
	}
	if cur == -1 {
		if len(h.logBlocks) >= h.maxLog {
			d, err := h.evictOldest()
			total += d
			if err != nil {
				return total, err
			}
		}
		npb, d, err := h.allocBlock()
		total += d
		if err != nil {
			return total, err
		}
		h.logBlocks = append(h.logBlocks, npb)
		h.owners[npb] = make(pageMap, h.ppb)
		cur = npb
	}
	page := h.pkg.WritePointer(cur)
	d, err := h.pkg.ProgramPages(cur, page, 1)
	total += d
	if err != nil {
		return total, err
	}
	// Supersede any older log copy.
	h.logMap[lpn] = logLoc{block: cur, page: page}
	h.owners[cur].set(page, int32(lpn))
	return total, nil
}

// evictOldest merges the oldest log block: every logical block with a
// copy in it is rebuilt (full merge), consuming all log copies of those
// blocks wherever they live. All work is charged as cleaning.
func (h *Hybrid) evictOldest() (sim.Time, error) {
	victim := h.logBlocks[0]
	var total sim.Time
	lbns := map[int]bool{}
	own := h.owners[victim]
	for page := range own {
		lpn := own.get(page)
		if lpn == unmapped {
			continue
		}
		// Only pages whose mapping still points here are live.
		if loc, ok := h.logMap[int(lpn)]; ok && loc.block == victim && loc.page == page {
			lbns[int(lpn)/h.ppb] = true
		}
	}
	// Deterministic merge order: map iteration order would make physical
	// block placement (and therefore long-run wear) vary between runs.
	order := make([]int, 0, len(lbns))
	for lbn := range lbns {
		order = append(order, lbn)
	}
	sort.Ints(order)
	for _, lbn := range order {
		d, err := h.mergeLBN(lbn)
		total += d
		if err != nil {
			return total, err
		}
	}
	d, err := h.release(victim)
	total += d
	if err != nil {
		return total, err
	}
	delete(h.owners, victim)
	h.logBlocks = h.logBlocks[1:]
	h.stats.Cleans++
	h.stats.CleanTime += total
	return total, nil
}

// mergeLBN rebuilds one logical block from its data block and all log
// copies into a fresh physical block.
func (h *Hybrid) mergeLBN(lbn int) (sim.Time, error) {
	old := h.dataMap.get(lbn)
	oldWP := 0
	if old != unmapped {
		oldWP = h.pkg.WritePointer(int(old))
	}
	// Highest page that holds data from either source.
	top := oldWP
	for k := 0; k < h.ppb; k++ {
		if _, ok := h.logMap[lbn*h.ppb+k]; ok && k+1 > top {
			top = k + 1
		}
	}
	if top == 0 {
		return 0, nil
	}
	npb, total, err := h.allocBlock()
	if err != nil {
		return total, err
	}
	d, err := h.rebuild(lbn, npb, 0, top, func(k int) (int, int) {
		if loc, ok := h.logMap[lbn*h.ppb+k]; ok {
			return loc.block, loc.page
		}
		if k < oldWP {
			return int(old), k
		}
		return -1, 0
	})
	for k := 0; k < top; k++ {
		delete(h.logMap, lbn*h.ppb+k)
	}
	return total + d, err
}

// Free implements Backend: informed mode drops log copies and marks data
// pages dead so merges skip them.
func (h *Hybrid) Free(lpn int) error {
	died, err := h.kill(lpn)
	if died {
		delete(h.logMap, lpn)
	}
	return err
}

// CheckInvariants implements Backend.
func (h *Hybrid) CheckInvariants() error {
	for _, pb := range h.logBlocks {
		if h.owners[pb] == nil {
			return fmt.Errorf("log block %d has no owner table", pb)
		}
	}
	if len(h.logBlocks) > h.maxLog {
		return fmt.Errorf("log pool %d exceeds limit %d", len(h.logBlocks), h.maxLog)
	}
	for lpn, loc := range h.logMap {
		own := h.owners[loc.block]
		if own == nil {
			return fmt.Errorf("lpn %d maps to non-log block %d", lpn, loc.block)
		}
		if got := own.get(loc.page); got != int32(lpn) {
			return fmt.Errorf("lpn %d log slot owned by %d", lpn, got)
		}
		if loc.page >= h.pkg.WritePointer(loc.block) {
			return fmt.Errorf("lpn %d log copy beyond write pointer", lpn)
		}
	}
	return h.checkBlocks(h.logBlocks)
}
