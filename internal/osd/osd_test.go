package osd

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ossd/internal/flash"
	"ossd/internal/sim"
	"ossd/internal/ssd"
)

func newStore(t *testing.T, layout ssd.Layout, informed bool) (*sim.Engine, *Store) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := ssd.Config{
		Elements:      4,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 8, BlocksPerPackage: 64},
		Overprovision: 0.15,
		Layout:        layout,
		GCLow:         0.12,
		GCCritical:    0.03,
		Informed:      informed,
	}
	if layout == ssd.FullStripe {
		cfg.StripeBytes = 4 * 4096
	}
	dev, err := ssd.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	return eng, st
}

func TestAllocationUnitFollowsLayout(t *testing.T) {
	_, interleaved := newStore(t, ssd.Interleaved, false)
	if interleaved.AllocationUnit() != 4096 {
		t.Fatalf("interleaved unit = %d", interleaved.AllocationUnit())
	}
	_, striped := newStore(t, ssd.FullStripe, false)
	if striped.AllocationUnit() != 4*4096 {
		t.Fatalf("striped unit = %d", striped.AllocationUnit())
	}
}

func TestCreateWriteReadDelete(t *testing.T) {
	eng, st := newStore(t, ssd.Interleaved, true)
	id := st.Create(Attributes{})
	var werr, rerr error
	wdone, rdone := false, false
	start := eng.Now()
	var wresp, wat sim.Time
	if err := st.Write(id, 0, 10000, func(resp sim.Time, e error) { werr, wdone, wresp, wat = e, true, resp, eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !wdone || werr != nil {
		t.Fatalf("write: done=%v err=%v", wdone, werr)
	}
	// The response spans every device part, measured from the store call.
	if wresp <= 0 || wresp != wat-start {
		t.Fatalf("write response %v, want completion %v - call %v", wresp, wat, start)
	}
	sz, err := st.Size(id)
	if err != nil || sz != 10000 {
		t.Fatalf("size = %d, %v", sz, err)
	}
	if err := st.Read(id, 0, 10000, func(_ sim.Time, e error) { rerr, rdone = e, true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !rdone || rerr != nil {
		t.Fatalf("read: done=%v err=%v", rdone, rerr)
	}
	if err := st.Delete(id); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if _, err := st.Size(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted object still present: %v", err)
	}
}

func TestDeleteReleasesPagesToFTL(t *testing.T) {
	eng, st := newStore(t, ssd.Interleaved, true)
	id := st.Create(Attributes{})
	if err := st.Write(id, 0, 64*4096, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := st.Delete(id); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	g := st.Device().GCStats()
	if g.FreesApplied == 0 {
		t.Fatal("delete did not reach the FTL as free notifications")
	}
	if g.FreesApplied != 64 {
		t.Fatalf("frees applied = %d, want 64", g.FreesApplied)
	}
}

func TestObjectWritesAreStripeAligned(t *testing.T) {
	// On a FullStripe device, object allocation must never trigger RMW
	// reads for whole-unit writes: that is the §3.4 payoff.
	eng, st := newStore(t, ssd.FullStripe, false)
	for i := 0; i < 8; i++ {
		id := st.Create(Attributes{})
		if err := st.Write(id, 0, st.AllocationUnit(), nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	if g := st.Device().GCStats(); g.HostPageReads != 0 {
		t.Fatalf("aligned object writes caused %d RMW reads", g.HostPageReads)
	}
}

func TestAttributesRoundTrip(t *testing.T) {
	_, st := newStore(t, ssd.Interleaved, false)
	id := st.Create(Attributes{Priority: true})
	a, err := st.Attributes(id)
	if err != nil || !a.Priority {
		t.Fatalf("attrs = %+v, %v", a, err)
	}
	if _, err := st.Attributes(999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object attrs: %v", err)
	}
}

func TestPriorityObjectTagsRequests(t *testing.T) {
	eng, st := newStore(t, ssd.Interleaved, false)
	hi := st.Create(Attributes{Priority: true})
	lo := st.Create(Attributes{})
	st.Write(hi, 0, 4096, nil)
	st.Write(lo, 0, 4096, nil)
	eng.Run()
	m := st.Device().Metrics()
	if m.PriResp.N() != 1 || m.BgResp.N() != 1 {
		t.Fatalf("priority tagging: pri=%d bg=%d", m.PriResp.N(), m.BgResp.N())
	}
}

func TestRangeValidation(t *testing.T) {
	eng, st := newStore(t, ssd.Interleaved, false)
	id := st.Create(Attributes{})
	if err := st.Write(id, -1, 10, nil); !errors.Is(err, ErrBadRange) {
		t.Errorf("negative offset: %v", err)
	}
	if err := st.Write(id, 0, 0, nil); !errors.Is(err, ErrBadRange) {
		t.Errorf("zero size: %v", err)
	}
	if err := st.Write(999, 0, 10, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing object: %v", err)
	}
	st.Write(id, 0, 100, nil)
	eng.Run()
	if err := st.Read(id, 50, 100, nil); !errors.Is(err, ErrBadRange) {
		t.Errorf("read past size: %v", err)
	}
	if err := st.Read(999, 0, 10, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("read missing object: %v", err)
	}
	if err := st.Delete(999); !errors.Is(err, ErrNotFound) {
		t.Errorf("delete missing: %v", err)
	}
}

func TestSparseExtension(t *testing.T) {
	eng, st := newStore(t, ssd.Interleaved, false)
	id := st.Create(Attributes{})
	// Write far past the start: allocation covers [0, end).
	if err := st.Write(id, 20*4096, 4096, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	sz, _ := st.Size(id)
	if sz != 21*4096 {
		t.Fatalf("size = %d", sz)
	}
	// The earlier region is allocated and readable.
	if err := st.Read(id, 0, 4096, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
}

func TestOutOfSpace(t *testing.T) {
	_, st := newStore(t, ssd.Interleaved, false)
	id := st.Create(Attributes{})
	cap := st.Device().LogicalBytes()
	if err := st.Write(id, 0, cap+4096, nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversize write: %v", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	eng, st := newStore(t, ssd.Interleaved, false)
	a := st.Create(Attributes{})
	b := st.Create(Attributes{})
	st.Write(a, 0, 8192, nil)
	st.Read(a, 0, 4096, nil)
	eng.Run()
	st.Delete(b)
	s := st.Stats()
	if s.Created != 2 || s.Deleted != 1 || s.Objects != 1 {
		t.Fatalf("object counts: %+v", s)
	}
	if s.BytesWritten != 8192 || s.BytesRead != 4096 {
		t.Fatalf("byte counts: %+v", s)
	}
	if s.AllocatedBytes < 8192 {
		t.Fatalf("allocated: %+v", s)
	}
}

func TestList(t *testing.T) {
	_, st := newStore(t, ssd.Interleaved, false)
	ids := map[ObjectID]bool{}
	for i := 0; i < 5; i++ {
		ids[st.Create(Attributes{})] = true
	}
	got := st.List()
	if len(got) != 5 {
		t.Fatalf("List len = %d", len(got))
	}
	for _, id := range got {
		if !ids[id] {
			t.Fatalf("unknown id %d", id)
		}
	}
}

// Property: a model map of object sizes agrees with the store through
// arbitrary create/write/delete interleavings, and device invariants
// survive.
func TestStoreModelProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		eng, st := func() (*sim.Engine, *Store) {
			eng := sim.NewEngine()
			cfg := ssd.Config{
				Elements:      2,
				Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 8, BlocksPerPackage: 64},
				Overprovision: 0.15,
				Layout:        ssd.Interleaved,
				Informed:      true,
				GCLow:         0.12,
				GCCritical:    0.03,
			}
			dev, err := ssd.New(eng, cfg)
			if err != nil {
				return nil, nil
			}
			s, err := New(dev)
			if err != nil {
				return nil, nil
			}
			return eng, s
		}()
		if st == nil {
			return false
		}
		model := map[ObjectID]int64{}
		var ids []ObjectID
		for _, op := range ops {
			switch op % 3 {
			case 0:
				id := st.Create(Attributes{})
				model[id] = 0
				ids = append(ids, id)
			case 1:
				if len(ids) == 0 {
					continue
				}
				id := ids[int(op>>2)%len(ids)]
				if _, live := model[id]; !live {
					continue
				}
				off := int64(op>>4) % 16 * 4096
				size := int64(op>>8)%4*4096 + 4096
				if err := st.Write(id, off, size, nil); err != nil {
					if errors.Is(err, ErrNoSpace) {
						continue
					}
					return false
				}
				if off+size > model[id] {
					model[id] = off + size
				}
			case 2:
				if len(ids) == 0 {
					continue
				}
				i := int(op>>2) % len(ids)
				id := ids[i]
				if _, live := model[id]; !live {
					continue
				}
				if err := st.Delete(id); err != nil {
					return false
				}
				delete(model, id)
			}
		}
		eng.Run()
		for id, want := range model {
			got, err := st.Size(id)
			if err != nil || got != want {
				return false
			}
		}
		for _, el := range st.Device().Elements() {
			if el.CheckInvariants() != nil {
				return false
			}
		}
		return len(st.List()) == len(model)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

func TestStat(t *testing.T) {
	eng, st := newStore(t, ssd.Interleaved, false)
	id := st.Create(Attributes{Priority: true})
	if err := st.Write(id, 0, 10000, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if sz, err := st.Size(id); err != nil || sz != 10000 {
		t.Fatalf("size = %d, %v; want 10000", sz, err)
	}
	o := st.objs[id]
	if got := o.allocatedBytes(st.AllocationUnit()); got < 10000 || got%st.AllocationUnit() != 0 {
		t.Fatalf("allocated = %d", got)
	}
	attrs, err := st.Attributes(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.extents) < 1 || !attrs.Priority {
		t.Fatalf("object details: extents %d, attrs %+v", len(o.extents), attrs)
	}
	if _, err := st.Size(999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object size: %v", err)
	}
}

func TestReserveAllocatesWithoutIO(t *testing.T) {
	eng, st := newStore(t, ssd.Interleaved, true)
	id := st.Create(Attributes{})
	if err := st.Reserve(id, 64<<10); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 {
		t.Fatalf("reserve scheduled %d device events", eng.Pending())
	}
	if sz, _ := st.Size(id); sz != 64<<10 {
		t.Fatalf("size = %d, want %d", sz, 64<<10)
	}
	if got := st.objs[id].allocatedBytes(st.AllocationUnit()); got < 64<<10 {
		t.Fatalf("allocated %d, want >= %d", got, 64<<10)
	}
	// Reserved ranges are immediately readable, and a smaller reserve
	// never shrinks the object.
	if err := st.Read(id, 0, 64<<10, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := st.Reserve(id, 4096); err != nil {
		t.Fatal(err)
	}
	if sz, _ := st.Size(id); sz != 64<<10 {
		t.Fatalf("shrunk to %d", sz)
	}
	// Validation: negative sizes and missing objects fail.
	if err := st.Reserve(id, -1); !errors.Is(err, ErrBadRange) {
		t.Fatalf("negative reserve: %v", err)
	}
	if err := st.Reserve(ObjectID(9999), 4096); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object reserve: %v", err)
	}
}

func TestFreeRangeTrimsThroughExtents(t *testing.T) {
	eng, st := newStore(t, ssd.Interleaved, true)
	id := st.Create(Attributes{})
	if err := st.Write(id, 0, 32<<10, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	before := st.Device().Metrics().Frees
	var freeErr error
	fired := false
	if err := st.FreeRange(id, 4096, 8192, func(_ sim.Time, err error) { fired, freeErr = true, err }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !fired || freeErr != nil {
		t.Fatalf("free completion: fired=%v err=%v", fired, freeErr)
	}
	if got := st.Device().Metrics().Frees - before; got == 0 {
		t.Fatal("no free notifications reached the device")
	}
	// Ranges past the object's size are rejected.
	if err := st.FreeRange(id, 30<<10, 8192, nil); !errors.Is(err, ErrBadRange) {
		t.Fatalf("out-of-range free: %v", err)
	}
	if err := st.FreeRange(ObjectID(777), 0, 4096, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object free: %v", err)
	}
}
