package ftl

import (
	"errors"
	"testing"

	"ossd/internal/sim"
)

// hammer overwrites logical pages round-robin until the element errors
// or n writes complete, returning the first error.
func hammer(el *Element, n int) error {
	for i := 0; i < n; i++ {
		if _, err := el.WritePages(i%el.LogicalPages(), 1); err != nil {
			return err
		}
	}
	return nil
}

// A wear ceiling retires blocks during cleaning: retired counts grow,
// the live pool shrinks, invariants hold throughout, and sustained
// traffic eventually hits the wear-out cliff (ErrNoSpace) long before
// the flash erase budget would have surfaced ErrWornOut.
func TestWearCeilingRetiresBlocks(t *testing.T) {
	cfg := smallConfig()
	cfg.WearCeiling = 4
	cfg.RemapCost = 300 * sim.Microsecond
	el := newElement(t, cfg)

	var lastRetired int64
	var sawCliff bool
	for round := 0; round < 400; round++ {
		if err := hammer(el, 64); err != nil {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("round %d: unexpected error %v", round, err)
			}
			sawCliff = true
			break
		}
		st := el.Stats()
		if st.RetiredBlocks < lastRetired {
			t.Fatalf("retired blocks went backwards: %d -> %d", lastRetired, st.RetiredBlocks)
		}
		lastRetired = st.RetiredBlocks
		if err := el.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if !sawCliff {
		t.Fatalf("never hit the wear-out cliff (retired %d blocks)", lastRetired)
	}
	st := el.Stats()
	if st.RetiredBlocks == 0 {
		t.Fatalf("cliff without any retirement")
	}
	if el.pkg.Retired() != int(st.RetiredBlocks) {
		t.Fatalf("package retired %d, stats %d", el.pkg.Retired(), st.RetiredBlocks)
	}
	if err := el.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Without a ceiling nothing retires and FreeFraction's denominator is
// the full physical pool.
func TestNoCeilingNoRetirement(t *testing.T) {
	el := newElement(t, smallConfig())
	if err := hammer(el, 2000); err != nil {
		t.Fatal(err)
	}
	if st := el.Stats(); st.RetiredBlocks != 0 || st.RemappedPages != 0 {
		t.Fatalf("retirement without a ceiling: %+v", st)
	}
}

// Retirement charges the remap cost: an element with a ceiling and a
// nonzero RemapCost accumulates more CleanTime than the same traffic
// with free remaps.
func TestRemapCostCharged(t *testing.T) {
	run := func(cost sim.Time) (Stats, error) {
		cfg := smallConfig()
		cfg.WearCeiling = 6
		cfg.RemapCost = cost
		el := newElement(t, cfg)
		err := hammer(el, 4000)
		return el.Stats(), err
	}
	cheap, err1 := run(0)
	costly, err2 := run(500 * sim.Microsecond)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("remap cost changed the op outcome: %v vs %v", err1, err2)
	}
	if cheap.RetiredBlocks == 0 {
		t.Fatalf("test traffic never retired a block")
	}
	if costly.RetiredBlocks != cheap.RetiredBlocks || costly.RemappedPages != cheap.RemappedPages {
		t.Fatalf("remap cost changed retirement counts: %+v vs %+v", cheap, costly)
	}
	if costly.CleanTime <= cheap.CleanTime {
		t.Fatalf("remap cost not charged: %v <= %v", costly.CleanTime, cheap.CleanTime)
	}
}
