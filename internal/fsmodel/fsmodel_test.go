package fsmodel

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func newFS(t *testing.T, blocks int64) *FS {
	t.Helper()
	fs, err := New(blocks*4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4096); err == nil {
		t.Error("accepted zero capacity")
	}
	if _, err := New(4096, 0); err == nil {
		t.Error("accepted zero block size")
	}
	fs := newFS(t, 100)
	if fs.nblocks != 100 || fs.free != 100 || fs.blockSize != 4096 {
		t.Fatalf("geometry: %d %d %d", fs.nblocks, fs.free, fs.blockSize)
	}
}

func TestCreateAppendDelete(t *testing.T) {
	fs := newFS(t, 100)
	id := fs.Create()
	if _, err := fs.Extents(id); err != nil {
		t.Fatalf("created file missing: %v", err)
	}
	got, err := fs.Append(id, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Count != 10 {
		t.Fatalf("fresh FS should allocate one extent: %v", got)
	}
	if fs.free != 90 {
		t.Fatalf("free = %d", fs.free)
	}
	ex, err := fs.Extents(id)
	if err != nil || len(ex) != 1 || ex[0].Count != 10 {
		t.Fatalf("extents = %v, %v", ex, err)
	}
	freed, err := fs.Delete(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(freed) != 1 || freed[0].Count != 10 {
		t.Fatalf("freed extents: %v", freed)
	}
	if _, err := fs.Extents(id); fs.free != 100 || !errors.Is(err, ErrNotFound) {
		t.Fatal("delete did not reclaim")
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	fs := newFS(t, 10)
	if _, err := fs.Append(999, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("append missing file: %v", err)
	}
	if _, err := fs.Delete(999); !errors.Is(err, ErrNotFound) {
		t.Errorf("delete missing file: %v", err)
	}
	id := fs.Create()
	if _, err := fs.Append(id, 0); !errors.Is(err, ErrBadRequest) {
		t.Errorf("zero append: %v", err)
	}
	if _, err := fs.Append(id, 11); !errors.Is(err, ErrNoSpace) {
		t.Errorf("oversized append: %v", err)
	}
	if _, err := fs.Extents(999); !errors.Is(err, ErrNotFound) {
		t.Errorf("extents missing file: %v", err)
	}
}

func TestFragmentedAllocation(t *testing.T) {
	fs := newFS(t, 12)
	a := fs.Create()
	b := fs.Create()
	// Interleave allocations so deleting a leaves holes.
	for i := 0; i < 3; i++ {
		if _, err := fs.Append(a, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Append(b, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Delete(a); err != nil {
		t.Fatal(err)
	}
	c := fs.Create()
	got, err := fs.Append(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 {
		t.Fatalf("expected fragmented allocation, got %v", got)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNextFitRotates(t *testing.T) {
	fs := newFS(t, 100)
	a := fs.Create()
	fs.Append(a, 10)
	fs.Delete(a)
	b := fs.Create()
	got, err := fs.Append(b, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Next-fit resumes past the first allocation instead of reusing it
	// immediately.
	if got[0].Start == 0 {
		t.Fatalf("next-fit reused blocks immediately: %v", got)
	}
}

func TestMergeExtents(t *testing.T) {
	in := []Extent{{Start: 10, Count: 5}, {Start: 0, Count: 5}, {Start: 5, Count: 5}, {Start: 20, Count: 1}}
	want := []Extent{{Start: 0, Count: 15}, {Start: 20, Count: 1}}
	if got := mergeExtents(in); !reflect.DeepEqual(got, want) {
		t.Fatalf("mergeExtents = %v, want %v", got, want)
	}
	if mergeExtents(nil) != nil {
		t.Fatal("empty merge not nil")
	}
	// Overlapping extents collapse.
	over := []Extent{{Start: 0, Count: 10}, {Start: 5, Count: 3}}
	if got := mergeExtents(over); len(got) != 1 || got[0].Count != 10 {
		t.Fatalf("overlap merge = %v", got)
	}
}

func TestExtentBytes(t *testing.T) {
	off, size := Extent{Start: 3, Count: 2}.Bytes(4096)
	if off != 3*4096 || size != 2*4096 {
		t.Fatalf("Bytes = %d, %d", off, size)
	}
}

// Property: any sequence of create/append/delete keeps the bitmap, free
// count, and extent ownership consistent, and blocks are never shared.
func TestFSInvariantProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		fs, err := New(256*4096, 4096)
		if err != nil {
			return false
		}
		var ids []FileID
		for _, op := range ops {
			switch op % 3 {
			case 0:
				ids = append(ids, fs.Create())
			case 1:
				if len(ids) == 0 {
					continue
				}
				id := ids[int(op>>2)%len(ids)]
				n := int64(op>>8)%8 + 1
				if _, err := fs.Append(id, n); err != nil &&
					!errors.Is(err, ErrNoSpace) && !errors.Is(err, ErrNotFound) {
					return false
				}
			case 2:
				if len(ids) == 0 {
					continue
				}
				i := int(op>>2) % len(ids)
				if _, err := fs.Delete(ids[i]); err != nil && !errors.Is(err, ErrNotFound) {
					return false
				}
				ids = append(ids[:i], ids[i+1:]...)
			}
		}
		return fs.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Append returns extents whose total equals the request, and
// they are disjoint from all other live extents.
func TestAppendExactProperty(t *testing.T) {
	prop := func(sizes []uint8) bool {
		fs, err := New(1024*4096, 4096)
		if err != nil {
			return false
		}
		owned := map[int64]bool{}
		for _, s := range sizes {
			n := int64(s)%16 + 1
			id := fs.Create()
			got, err := fs.Append(id, n)
			if errors.Is(err, ErrNoSpace) {
				return true
			}
			if err != nil {
				return false
			}
			var total int64
			for _, e := range got {
				total += e.Count
				for b := e.Start; b < e.Start+e.Count; b++ {
					if owned[b] {
						return false
					}
					owned[b] = true
				}
			}
			if total != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Fatal(err)
	}
}

// refFS is the block-at-a-time reference allocator: next-fit over one
// bool per block, extending the last extent when the next free block is
// adjacent to it.
type refFS struct {
	used  []bool
	free  int64
	hint  int64
	files map[FileID][]Extent
}

func (r *refFS) append(id FileID, n int64) ([]Extent, error) {
	if n > r.free {
		return nil, ErrNoSpace
	}
	var got []Extent
	nb := int64(len(r.used))
	cursor := r.hint
	for remaining := n; remaining > 0; cursor++ {
		b := cursor % nb
		if r.used[b] {
			continue
		}
		r.used[b] = true
		r.free--
		remaining--
		if last := len(got) - 1; last >= 0 && got[last].Start+got[last].Count == b {
			got[last].Count++
		} else {
			got = append(got, Extent{Start: b, Count: 1})
		}
	}
	r.hint = cursor % nb
	r.files[id] = append(r.files[id], got...)
	return got, nil
}

func (r *refFS) delete(id FileID) []Extent {
	ex := r.files[id]
	delete(r.files, id)
	for _, e := range ex {
		for b := e.Start; b < e.Start+e.Count; b++ {
			r.used[b] = false
			r.free++
		}
	}
	return mergeExtents(append([]Extent(nil), ex...))
}

// TestAllocatorMatchesReference drives FS and the block-at-a-time
// reference through the same random creates, appends and deletes on
// devices whose block counts straddle word boundaries. Appends wrap past
// the end of the device, fill it exactly and overflow it; every result,
// extent list, free count and bitmap bit must match. Every step also
// looks up a deleted, live or never-issued ID: Extents, Append and
// Delete on any ID the reference does not hold answer ErrNotFound and
// change nothing.
func TestAllocatorMatchesReference(t *testing.T) {
	for _, blocks := range []int64{1, 2, 63, 64, 65, 127, 130, 1000} {
		rng := rand.New(rand.NewSource(blocks))
		fs := newFS(t, blocks)
		ref := &refFS{used: make([]bool, blocks), free: blocks, files: map[FileID][]Extent{}}
		var live, dead []FileID
		fills, wraps := 0, 0
		for step := 0; step < 4000; step++ {
			var id FileID
			switch r := rng.Intn(10); {
			case r < 2 || len(live) == 0:
				id = fs.Create()
				ref.files[id] = nil
				live = append(live, id)
			case r < 4:
				i := rng.Intn(len(live))
				id = live[i]
				live = append(live[:i], live[i+1:]...)
				got, err := fs.Delete(id)
				if want := ref.delete(id); err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("blocks %d step %d: Delete = %v, %v; want %v", blocks, step, got, err, want)
				}
				dead = append(dead, id)
			default:
				id = live[rng.Intn(len(live))]
				n := 1 + rng.Int63n(max(1, blocks/8))
				switch rng.Intn(8) {
				case 0:
					n = max(1, ref.free) // fill the device exactly
				case 1:
					n = ref.free + 1 // one block too many
				}
				hint := ref.hint
				got, err := fs.Append(id, n)
				want, werr := ref.append(id, n)
				if werr == nil && ref.free == 0 {
					fills++
				}
				for i, e := range want {
					if i == 0 && e.Start < hint || i > 0 && e.Start < want[i-1].Start {
						wraps++
					}
				}
				if !errors.Is(err, werr) && err != werr {
					t.Fatalf("blocks %d step %d: Append(%d) err = %v, want %v", blocks, step, n, err, werr)
				}
				if err == nil && !reflect.DeepEqual(got, want) {
					t.Fatalf("blocks %d step %d: Append(%d) = %v, want %v", blocks, step, n, got, want)
				}
			}
			if got, _ := fs.Extents(id); len(got) != 0 || len(ref.files[id]) != 0 {
				if !reflect.DeepEqual(got, ref.files[id]) {
					t.Fatalf("blocks %d step %d: Extents(%d) = %v, want %v", blocks, step, id, got, ref.files[id])
				}
			}
			probe := FileID(rng.Intn(len(live)+len(dead)+3)) - 1 // -1, 0, any issued ID, one past
			if len(dead) > 0 && rng.Intn(2) == 0 {
				probe = dead[rng.Intn(len(dead))]
			}
			if _, held := ref.files[probe]; !held {
				if _, err := fs.Extents(probe); err != ErrNotFound {
					t.Fatalf("blocks %d step %d: Extents(%d) of an unheld file: err %v", blocks, step, probe, err)
				}
				if _, err := fs.Append(probe, 1); err != ErrNotFound {
					t.Fatalf("blocks %d step %d: Append(%d) to an unheld file: err %v", blocks, step, probe, err)
				}
				if _, err := fs.Delete(probe); err != ErrNotFound {
					t.Fatalf("blocks %d step %d: Delete(%d) of an unheld file: err %v", blocks, step, probe, err)
				}
			} else if got, err := fs.Extents(probe); err != nil || len(got)+len(ref.files[probe]) > 0 && !reflect.DeepEqual(got, ref.files[probe]) {
				t.Fatalf("blocks %d step %d: Extents(%d) = %v, %v; want %v", blocks, step, probe, got, err, ref.files[probe])
			}
			if fs.free != ref.free || fs.hint != ref.hint {
				t.Fatalf("blocks %d step %d: free %d hint %d, want %d %d", blocks, step, fs.free, fs.hint, ref.free, ref.hint)
			}
			for b, used := range ref.used {
				if fs.isSet(int64(b)) != used {
					t.Fatalf("blocks %d step %d: block %d allocated = %v, want %v", blocks, step, b, !used, used)
				}
			}
		}
		if fills == 0 || wraps == 0 && blocks > 1 {
			t.Fatalf("blocks %d: %d appends filled the device and %d wrapped, want both", blocks, fills, wraps)
		}
	}
}

// TestDeleteDoubleFreePanics pins the panic on freeing a block the
// bitmap does not hold: it names the first such block.
func TestDeleteDoubleFreePanics(t *testing.T) {
	fs := newFS(t, 200)
	id := fs.Create()
	if _, err := fs.Append(id, 150); err != nil {
		t.Fatal(err)
	}
	fs.bitmap[1] &^= 1 << 7 // block 71
	fs.bitmap[2] &^= 1 << 1 // block 129
	defer func() {
		if got, want := recover(), "fsmodel: double free of block 71"; got != want {
			t.Fatalf("panic = %v, want %q", got, want)
		}
	}()
	fs.Delete(id)
}
