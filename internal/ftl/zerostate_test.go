package ftl

import (
	"testing"

	"ossd/internal/sim"
)

// Every scheme's maps store zero for "unmapped", so a freshly allocated
// backend is the pristine device without a pass over its pages. These
// tests pin that contract: a new backend is consistent and empty, and
// the encoding survives a full write/read/free/clean round trip.

// TestFreshBackendIsPristine: a new backend of every scheme passes its
// invariant check, reports all of its space free, and reads every
// logical page as unmapped, at the cost of a synthesized zero page.
func TestFreshBackendIsPristine(t *testing.T) {
	for _, s := range allSchemes() {
		cfg := schemeConfig()
		cfg.Informed = true
		b, err := NewBackend(s, cfg)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("%v: fresh backend: %v", s, err)
		}
		if got := b.FreeFraction(); got != 1 {
			t.Fatalf("%v: fresh free fraction %v, want 1", s, got)
		}
		zero := sim.Time(cfg.Geom.PageSize) * cfg.Timing.BusPerByte
		for lpn := 0; lpn < b.LogicalPages(); lpn++ {
			if b.Mapped(lpn) {
				t.Fatalf("%v: fresh lpn %d reads mapped", s, lpn)
			}
			if d, err := b.ReadPage(lpn); err != nil || d != zero {
				t.Fatalf("%v: fresh read of lpn %d = %v, %v; want %v (a zero page)", s, lpn, d, err, zero)
			}
		}
	}
}

// TestZeroStateRoundTrip writes every logical page, reads it back, frees
// every other one (informed), overwrites the rest until the cleaner has
// work, and cleans. The invariants hold after every step, freed pages
// read unmapped and the rest mapped.
func TestZeroStateRoundTrip(t *testing.T) {
	for _, s := range allSchemes() {
		cfg := schemeConfig()
		cfg.Informed = true
		b, err := NewBackend(s, cfg)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		check := func(step string, lpn int) {
			t.Helper()
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("%v: after %s %d: %v", s, step, lpn, err)
			}
		}
		n := b.LogicalPages()
		for lpn := 0; lpn < n; lpn++ {
			if _, err := b.WritePages(lpn, 1); err != nil {
				t.Fatalf("%v: write %d: %v", s, lpn, err)
			}
			check("write", lpn)
		}
		for lpn := 0; lpn < n; lpn++ {
			if !b.Mapped(lpn) {
				t.Fatalf("%v: written lpn %d reads unmapped", s, lpn)
			}
			if _, err := b.ReadPage(lpn); err != nil {
				t.Fatalf("%v: read %d: %v", s, lpn, err)
			}
			check("read", lpn)
		}
		for lpn := 0; lpn < n; lpn += 2 {
			if err := b.Free(lpn); err != nil {
				t.Fatalf("%v: free %d: %v", s, lpn, err)
			}
			check("free", lpn)
		}
		for pass := 0; pass < 3; pass++ {
			for lpn := 1; lpn < n; lpn += 2 {
				if _, err := b.WritePages(lpn, 1); err != nil {
					t.Fatalf("%v: overwrite %d: %v", s, lpn, err)
				}
				check("overwrite", lpn)
			}
		}
		for i := 0; b.CanClean() && i < cfg.Geom.BlocksPerPackage; i++ {
			if _, err := b.CleanOnce(); err != nil {
				t.Fatalf("%v: clean %d: %v", s, i, err)
			}
			check("clean", i)
		}
		for lpn := 0; lpn < n; lpn++ {
			if want := lpn%2 == 1; b.Mapped(lpn) != want {
				t.Fatalf("%v: after cleaning lpn %d mapped = %v, want %v", s, lpn, !want, want)
			}
		}
		if b.Stats().Cleans == 0 {
			t.Fatalf("%v: the round trip never cleaned", s)
		}
	}
}
