package ftl

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ossd/internal/flash"
	"ossd/internal/sim"
)

func schemeConfig() Config {
	return Config{
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 8, BlocksPerPackage: 32},
		Timing:        flash.TimingFor(flash.SLC),
		Overprovision: 0.15,
	}
}

func allSchemes() []Scheme { return []Scheme{PageMapped, BlockMapped, HybridLog} }

func TestSchemeStrings(t *testing.T) {
	if PageMapped.String() != "page-mapped" || BlockMapped.String() != "block-mapped" || HybridLog.String() != "hybrid-log" {
		t.Fatal("scheme strings wrong")
	}
}

func TestParseScheme(t *testing.T) {
	for name, want := range map[string]Scheme{"page": PageMapped, "block": BlockMapped, "hybrid": HybridLog} {
		if got, err := ParseScheme(name); err != nil || got != want {
			t.Fatalf("ParseScheme(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "page-mapped", "quantum"} {
		if _, err := ParseScheme(name); err == nil {
			t.Fatalf("ParseScheme(%q) accepted", name)
		}
	}
}

func TestNewBackendUnknown(t *testing.T) {
	if _, err := NewBackend(Scheme(99), schemeConfig()); err == nil {
		t.Fatal("accepted unknown scheme")
	}
}

func TestBackendConstruction(t *testing.T) {
	for _, s := range allSchemes() {
		b, err := NewBackend(s, schemeConfig())
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if b.LogicalPages() <= 0 {
			t.Fatalf("%v: no capacity", s)
		}
		if b.FreeFraction() <= 0 || b.FreeFraction() > 1 {
			t.Fatalf("%v: free fraction %v", s, b.FreeFraction())
		}
	}
}

func TestBackendValidationErrors(t *testing.T) {
	bad := schemeConfig()
	bad.Geom.BlocksPerPackage = 2
	for _, s := range allSchemes() {
		if _, err := NewBackend(s, bad); err == nil {
			t.Errorf("%v accepted 2-block package", s)
		}
	}
	for _, s := range allSchemes() {
		b, err := NewBackend(s, schemeConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.WritePages(-1, 1); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("%v write -1: %v", s, err)
		}
		if _, err := b.ReadPage(b.LogicalPages()); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("%v read beyond: %v", s, err)
		}
		if err := b.Free(-5); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("%v free -5: %v", s, err)
		}
	}
}

// Every scheme must present the same logical semantics: written pages are
// mapped, informed frees unmap, reads always succeed.
func TestBackendSemanticsUniform(t *testing.T) {
	for _, s := range allSchemes() {
		cfg := schemeConfig()
		cfg.Informed = true
		b, err := NewBackend(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if b.Mapped(3) {
			t.Errorf("%v: fresh page mapped", s)
		}
		if _, err := b.WritePages(3, 1); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !b.Mapped(3) {
			t.Errorf("%v: written page not mapped", s)
		}
		if d, err := b.ReadPage(3); err != nil || d <= 0 {
			t.Errorf("%v: read %v %v", s, d, err)
		}
		if err := b.Free(3); err != nil {
			t.Fatal(err)
		}
		if b.Mapped(3) {
			t.Errorf("%v: freed page still mapped", s)
		}
		st := b.Stats()
		if st.HostWrites != 1 || st.HostReads != 1 || st.FreesApplied != 1 {
			t.Errorf("%v: stats %+v", s, st)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
}

// Sequential whole-device writes must succeed on every scheme without
// exploding into merges.
func TestBackendSequentialFill(t *testing.T) {
	for _, s := range allSchemes() {
		b, err := NewBackend(s, schemeConfig())
		if err != nil {
			t.Fatal(err)
		}
		for lpn := 0; lpn < b.LogicalPages(); lpn++ {
			if _, err := b.WritePages(lpn, 1); err != nil {
				t.Fatalf("%v: fill lpn %d: %v", s, lpn, err)
			}
		}
		st := b.Stats()
		if st.PagesMoved != 0 {
			t.Errorf("%v: sequential fill moved %d pages", s, st.PagesMoved)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
}

// Random overwrites after a fill must keep working on every scheme; the
// relocation cost ordering is the classic FTL result:
// page-mapped < hybrid < block-mapped.
func TestBackendRandomOverwriteCostOrdering(t *testing.T) {
	cost := map[Scheme]sim.Time{}
	for _, s := range allSchemes() {
		b, err := NewBackend(s, schemeConfig())
		if err != nil {
			t.Fatal(err)
		}
		for lpn := 0; lpn < b.LogicalPages(); lpn++ {
			if _, err := b.WritePages(lpn, 1); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(77))
		var total sim.Time
		for i := 0; i < 3*b.LogicalPages(); i++ {
			d, err := b.WritePages(rng.Intn(b.LogicalPages()), 1)
			if err != nil {
				t.Fatalf("%v: overwrite %d: %v", s, i, err)
			}
			total += d
		}
		// Drain any deferred cleaning so the comparison is fair.
		for b.CanClean() && b.FreeFraction() < 0.1 {
			d, err := b.CleanOnce()
			if err != nil {
				break
			}
			total += d
		}
		cost[s] = total
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
	if !(cost[PageMapped] < cost[HybridLog] && cost[HybridLog] < cost[BlockMapped]) {
		t.Fatalf("random overwrite cost ordering wrong: page=%v hybrid=%v block=%v",
			cost[PageMapped], cost[HybridLog], cost[BlockMapped])
	}
}

func TestBlockMergeCounts(t *testing.T) {
	b, err := NewBlock(schemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Fill one logical block, then rewrite a middle page: the merge
	// copies the other 7 pages.
	for k := 0; k < 8; k++ {
		if _, err := b.WritePages(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.WritePages(3, 1); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.PagesMoved != 7 {
		t.Fatalf("merge moved %d pages, want 7", st.PagesMoved)
	}
	if st.Cleans != 1 || st.GCErases != 1 {
		t.Fatalf("merge stats: %+v", st)
	}
}

func TestBlockSwitchMerge(t *testing.T) {
	// A full sequential rewrite of a block goes through a replacement
	// block and costs zero page copies (switch merge).
	b, err := NewBlock(schemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		if _, err := b.WritePages(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 8; k++ {
		if _, err := b.WritePages(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.PagesMoved != 0 {
		t.Fatalf("switch merge moved %d pages, want 0", st.PagesMoved)
	}
	if st.GCErases != 1 {
		t.Fatalf("switch merge erases = %d, want 1 (the old block)", st.GCErases)
	}
	for k := 0; k < 8; k++ {
		if !b.Mapped(k) {
			t.Fatalf("page %d lost after switch merge", k)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockReplacementOutOfOrderCloses(t *testing.T) {
	// Open a replacement with a rewrite at page 0, then jump to page 5:
	// the replacement closes (partial merge) and the write proceeds.
	b, err := NewBlock(schemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		b.WritePages(k, 1)
	}
	b.WritePages(0, 1) // opens replacement
	if len(b.repl) != 1 {
		t.Fatal("replacement not opened")
	}
	if _, err := b.WritePages(5, 1); err != nil {
		t.Fatal(err)
	}
	if len(b.repl) != 0 {
		t.Fatal("replacement not closed by out-of-order write")
	}
	for k := 0; k < 8; k++ {
		if !b.Mapped(k) {
			t.Fatalf("page %d lost", k)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockMidBlockFirstWrite(t *testing.T) {
	b, err := NewBlock(schemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	// First write to page 5 of an unmapped block pads pages 0..5.
	if _, err := b.WritePages(5, 1); err != nil {
		t.Fatal(err)
	}
	if !b.Mapped(5) {
		t.Fatal("page 5 unmapped")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockInformedWholeBlockFree(t *testing.T) {
	cfg := schemeConfig()
	cfg.Informed = true
	b, err := NewBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		if _, err := b.WritePages(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	before := b.FreeFraction()
	for k := 0; k < 8; k++ {
		if err := b.Free(k); err != nil {
			t.Fatal(err)
		}
	}
	if b.FreeFraction() <= before {
		t.Fatal("whole-block free did not reclaim the block")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHybridLogAbsorbsRandomWrites(t *testing.T) {
	h, err := NewHybrid(schemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		if _, err := h.WritePages(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	// A few random overwrites go to the log without any merge.
	for _, lpn := range []int{0, 3, 0, 5} {
		if _, err := h.WritePages(lpn, 1); err != nil {
			t.Fatal(err)
		}
	}
	if st := h.Stats(); st.Cleans != 0 {
		t.Fatalf("log writes triggered %d merges", st.Cleans)
	}
	// Reads see the newest copy (from the log).
	if !h.Mapped(0) || !h.Mapped(3) {
		t.Fatal("log copies not visible")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHybridEvictionMerges(t *testing.T) {
	h, err := NewHybrid(schemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := h.LogicalPages()
	for lpn := 0; lpn < n; lpn++ {
		if _, err := h.WritePages(lpn, 1); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4*n; i++ {
		if _, err := h.WritePages(rng.Intn(n), 1); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
	st := h.Stats()
	if st.Cleans == 0 || st.PagesMoved == 0 {
		t.Fatalf("sustained overwrites never merged: %+v", st)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHybridCleanOnce(t *testing.T) {
	h, err := NewHybrid(schemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.CleanOnce(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("CleanOnce on empty: %v", err)
	}
	// Create log content, then clean explicitly.
	for k := 0; k < 8; k++ {
		h.WritePages(k, 1)
	}
	h.WritePages(0, 1) // log copy
	if _, err := h.CleanOnce(); err != nil {
		t.Fatal(err)
	}
	if len(h.logBlocks) != 0 {
		t.Fatal("log block not evicted")
	}
	if !h.Mapped(0) {
		t.Fatal("merged page lost")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: every scheme keeps a correct logical view (model-checked map)
// under random write/free interleavings, with invariants intact.
func TestSchemeModelProperty(t *testing.T) {
	for _, s := range allSchemes() {
		s := s
		prop := func(ops []uint16) bool {
			cfg := schemeConfig()
			cfg.Informed = true
			b, err := NewBackend(s, cfg)
			if err != nil {
				return false
			}
			n := b.LogicalPages()
			model := map[int]bool{}
			for _, op := range ops {
				lpn := int(op>>1) % n
				if op%2 == 0 {
					if _, err := b.WritePages(lpn, 1); err != nil {
						return false
					}
					model[lpn] = true
				} else {
					if err := b.Free(lpn); err != nil {
						return false
					}
					delete(model, lpn)
				}
			}
			for lpn := 0; lpn < n; lpn++ {
				if b.Mapped(lpn) != model[lpn] {
					return false
				}
			}
			return b.CheckInvariants() == nil
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(41))}); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
}

// Property: interleaving writes, frees, reads, and explicit cleans keeps
// invariants on the hybrid scheme (its merge logic is the most intricate).
func TestHybridInvariantProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		cfg := schemeConfig()
		cfg.Informed = true
		h, err := NewHybrid(cfg)
		if err != nil {
			return false
		}
		n := h.LogicalPages()
		for _, op := range ops {
			lpn := int(op>>2) % n
			switch op % 4 {
			case 0, 1:
				if _, err := h.WritePages(lpn, 1); err != nil {
					return false
				}
			case 2:
				if _, err := h.ReadPage(lpn); err != nil {
					return false
				}
			case 3:
				if h.CanClean() {
					if _, err := h.CleanOnce(); err != nil {
						return false
					}
				}
			}
		}
		return h.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Fatal(err)
	}
}

// The block-mapped FTL must not report ErrNoSpace while it holds
// replacement blocks it could close, nor demand a second spare to
// rewrite page 0 of a full block.
func TestBlockNoSpuriousNoSpace(t *testing.T) {
	cfg := Config{
		Geom:   flash.Geometry{PageSize: 4096, PagesPerBlock: 4, BlocksPerPackage: 8},
		Timing: flash.TimingFor(flash.SLC),
	}
	cases := []struct {
		name   string
		writes []int
	}{
		// Every logical block full, one spare: a page-0 rewrite must
		// fall back to a merge instead of opening a replacement.
		{"one-spare-page0-rewrite", append(seqLPNs(0, 28), 0, 8, 9)},
		// Two open replacements hold the spares, then first writes to
		// unmapped blocks and a merge need blocks back.
		{"first-write-behind-replacements", append(seqLPNs(0, 20), 0, 4, 20, 24, 13)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBlock(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if b.LogicalPages() != 28 {
				t.Fatalf("%d logical pages, want 7 blocks of 4", b.LogicalPages())
			}
			for i, lpn := range tc.writes {
				if _, err := b.WritePages(lpn, 1); err != nil {
					t.Fatalf("write %d (lpn %d): %v", i, lpn, err)
				}
				if err := b.CheckInvariants(); err != nil {
					t.Fatalf("after write %d: %v", i, err)
				}
			}
			for _, lpn := range tc.writes {
				if _, err := b.ReadPage(lpn); err != nil || !b.Mapped(lpn) {
					t.Fatalf("lpn %d lost: mapped %v, read %v", lpn, b.Mapped(lpn), err)
				}
			}
		})
	}
}

func seqLPNs(from, to int) []int {
	var s []int
	for lpn := from; lpn < to; lpn++ {
		s = append(s, lpn)
	}
	return s
}
