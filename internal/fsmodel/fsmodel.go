// Package fsmodel is a minimal file-system block allocator: a block
// bitmap with next-fit extent allocation and per-file extent lists. It
// stands in for the paper's ext3-aware pseudo-device driver (§3.5): the
// Postmark workload generator runs file create/write/read/delete
// operations through it to obtain a block-level trace in which deletions
// appear as free notifications at the exact block ranges the file
// occupied.
package fsmodel

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"ossd/internal/chunks"
)

// FileID names a file within the model.
type FileID int64

// Extent is a contiguous run of blocks.
type Extent struct {
	// Start is the first block; Count the run length.
	Start, Count int64
}

// Bytes converts the extent to a byte range for a given block size.
func (e Extent) Bytes(blockSize int64) (off, size int64) {
	return e.Start * blockSize, e.Count * blockSize
}

// Errors.
var (
	ErrNoSpace    = errors.New("fsmodel: file system full")
	ErrNotFound   = errors.New("fsmodel: no such file")
	ErrBadRequest = errors.New("fsmodel: invalid request")
)

// FS is the allocator state. Not safe for concurrent use.
type FS struct {
	blockSize int64
	nblocks   int64
	bitmap    []uint64
	free      int64
	hint      int64 // next-fit cursor
	// Entry id-1 of files is file id: IDs are dense, handed out in
	// order by Create, and a deleted file keeps its slot, marked dead.
	// The table grows a 256-entry chunk at a time as IDs are issued, so
	// building a model costs nothing per file and growing it never
	// copies the table.
	files chunks.Slice[file]
	// got is Append's result, reused across calls.
	got []Extent
}

// file is one file's slot in the table.
type file struct {
	extents []Extent
	dead    bool
}

// New builds an empty file system over capacity bytes.
func New(capacity, blockSize int64) (*FS, error) {
	if blockSize <= 0 || capacity < blockSize {
		return nil, fmt.Errorf("%w: capacity %d blockSize %d", ErrBadRequest, capacity, blockSize)
	}
	n := capacity / blockSize
	return &FS{
		blockSize: blockSize,
		nblocks:   n,
		bitmap:    make([]uint64, (n+63)/64),
		free:      n,
	}, nil
}

func (fs *FS) isSet(b int64) bool { return fs.bitmap[b/64]&(1<<(uint(b)%64)) != 0 }

// nextFree returns the first free block at or after b, wrapping past the
// end of the device. Full words are skipped whole; the bits past the
// last block read as free and wrap.
func (fs *FS) nextFree(b int64) int64 {
	for laps := 0; laps < 2; {
		if x := ^fs.bitmap[b>>6] >> (b & 63); x != 0 {
			if f := b + int64(bits.TrailingZeros64(x)); f < fs.nblocks {
				return f
			}
		} else if b = (b>>6 + 1) << 6; b < fs.nblocks {
			continue
		}
		b = 0
		laps++
	}
	// Append checked the free count, so this is a bug.
	panic("fsmodel: free-count/bitmap mismatch")
}

// freeRun returns how many consecutive blocks from b are free, counting
// no further than limit blocks or the end of the device.
func (fs *FS) freeRun(b, limit int64) int64 {
	end := min(fs.nblocks, b+limit)
	e := b
	for e < end {
		off := e & 63
		if x := fs.bitmap[e>>6] >> off; x != 0 {
			e += int64(bits.TrailingZeros64(x))
			break
		}
		e += 64 - off
	}
	return min(e, end) - b
}

// runMasks calls f with the index of each bitmap word covering blocks
// [b, b+n) and the mask of those blocks within it.
func (fs *FS) runMasks(b, n int64, f func(w int64, mask uint64)) {
	for n > 0 {
		off := b & 63
		k := min(n, 64-off)
		f(b>>6, ^uint64(0)>>(64-k)<<off)
		b, n = b+k, n-k
	}
}

// Create registers a new empty file and returns its ID.
func (fs *FS) Create() FileID {
	fs.files.Push(file{})
	return FileID(fs.files.Len())
}

// lookup returns the slot of a live file, or nil.
func (fs *FS) lookup(id FileID) *file {
	if id < 1 || id > FileID(fs.files.Len()) {
		return nil
	}
	if f := fs.files.At(int(id - 1)); !f.dead {
		return f
	}
	return nil
}

// Extents returns a file's extent list. The slice is the model's own
// view: read-only, and valid until the file's next Append or Delete.
func (fs *FS) Extents(id FileID) ([]Extent, error) {
	f := fs.lookup(id)
	if f == nil {
		return nil, ErrNotFound
	}
	return f.extents, nil
}

// Append allocates n blocks to a file with next-fit placement and
// returns the newly-allocated extents (possibly several when free space
// is fragmented). The result is FS-owned scratch, valid until the next
// Append: copy it out to keep it.
func (fs *FS) Append(id FileID, n int64) ([]Extent, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: append %d blocks", ErrBadRequest, n)
	}
	f := fs.lookup(id)
	if f == nil {
		return nil, ErrNotFound
	}
	if n > fs.free {
		return nil, ErrNoSpace
	}
	// got collects the allocated runs. Each run is maximal (it ends at an
	// allocated block, the end of the device or the request), so the
	// next run never extends it.
	got := fs.got[:0]
	b := fs.hint
	for remaining := n; remaining > 0; {
		b = fs.nextFree(b)
		k := fs.freeRun(b, remaining)
		fs.runMasks(b, k, func(w int64, mask uint64) { fs.bitmap[w] |= mask })
		got = append(got, Extent{Start: b, Count: k})
		remaining -= k
		if b += k; b == fs.nblocks {
			b = 0
		}
	}
	fs.free -= n
	fs.got = got
	fs.hint = b
	f.extents = append(f.extents, got...)
	return got, nil
}

// Delete removes a file and returns its extents (now free), merged and
// sorted, ready to become free notifications. The result reuses the dead
// file's own extent list, which now belongs to the caller.
func (fs *FS) Delete(id FileID) ([]Extent, error) {
	f := fs.lookup(id)
	if f == nil {
		return nil, ErrNotFound
	}
	ex := f.extents
	*f = file{dead: true}
	for _, e := range ex {
		fs.runMasks(e.Start, e.Count, func(w int64, mask uint64) {
			if lost := mask &^ fs.bitmap[w]; lost != 0 {
				panic(fmt.Sprintf("fsmodel: double free of block %d", w*64+int64(bits.TrailingZeros64(lost))))
			}
			fs.bitmap[w] &^= mask
		})
		fs.free += e.Count
	}
	return mergeExtents(ex), nil
}

// mergeExtents sorts and coalesces adjacent or overlapping extents in
// ex's own storage.
func mergeExtents(ex []Extent) []Extent {
	if len(ex) == 0 {
		return nil
	}
	slices.SortFunc(ex, func(a, b Extent) int { return cmp.Compare(a.Start, b.Start) })
	merged := ex[:1]
	for _, e := range ex[1:] {
		last := &merged[len(merged)-1]
		if e.Start <= last.Start+last.Count {
			if end := e.Start + e.Count; end > last.Start+last.Count {
				last.Count = end - last.Start
			}
		} else {
			merged = append(merged, e)
		}
	}
	return merged
}

// CheckInvariants validates bitmap/extent consistency.
func (fs *FS) CheckInvariants() error {
	used := make(map[int64]FileID)
	for i := range fs.files.Len() {
		f := fs.files.At(i)
		if f.dead {
			continue
		}
		id := FileID(i + 1)
		for _, e := range f.extents {
			if e.Start < 0 || e.Count <= 0 || e.Start+e.Count > fs.nblocks {
				return fmt.Errorf("file %d: extent %+v out of range", id, e)
			}
			for b := e.Start; b < e.Start+e.Count; b++ {
				if owner, dup := used[b]; dup {
					return fmt.Errorf("block %d owned by files %d and %d", b, owner, id)
				}
				used[b] = id
				if !fs.isSet(b) {
					return fmt.Errorf("file %d block %d not marked in bitmap", id, b)
				}
			}
		}
	}
	var setCount int64
	for b := int64(0); b < fs.nblocks; b++ {
		if fs.isSet(b) {
			setCount++
		}
	}
	if setCount != int64(len(used)) {
		return fmt.Errorf("bitmap has %d set blocks, files own %d", setCount, len(used))
	}
	if fs.free != fs.nblocks-setCount {
		return fmt.Errorf("free count %d, want %d", fs.free, fs.nblocks-setCount)
	}
	return nil
}
