package ftl

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ossd/internal/sim"
)

// internals lists a backend's physical state: the flash package and
// every map, list and counter of the scheme, so two backends with the
// same contents in different places differ.
func internals(b Backend) []any {
	switch x := b.(type) {
	case *Element:
		return []any{*x}
	case *Block:
		return []any{x.pkg, x.dataMap, x.written, x.dead, x.freeBlocks, x.repl, x.replOrder}
	case *Hybrid:
		return []any{x.pkg, x.dataMap, x.written, x.dead, x.freeBlocks, x.logMap, x.logBlocks, x.owners}
	}
	panic("unknown backend")
}

// sameBackend compares everything two backends expose (counters, wear,
// free space, the mapping of every logical page and the invariants) and
// their physical state.
func sameBackend(a, b Backend) error {
	if !reflect.DeepEqual(internals(a), internals(b)) {
		return fmt.Errorf("physical state differs")
	}
	if a.Stats() != b.Stats() {
		return fmt.Errorf("stats %+v, want %+v", a.Stats(), b.Stats())
	}
	if a.Wear() != b.Wear() {
		return fmt.Errorf("wear %+v, want %+v", a.Wear(), b.Wear())
	}
	if a.FreeFraction() != b.FreeFraction() {
		return fmt.Errorf("free fraction %v, want %v", a.FreeFraction(), b.FreeFraction())
	}
	for lpn := 0; lpn < a.LogicalPages(); lpn++ {
		if a.Mapped(lpn) != b.Mapped(lpn) {
			return fmt.Errorf("lpn %d mapped %v, want %v", lpn, a.Mapped(lpn), b.Mapped(lpn))
		}
	}
	if err := a.CheckInvariants(); err != nil {
		return err
	}
	return b.CheckInvariants()
}

// TestWritePagesMatchesSinglePages drives twin backends of every scheme
// with the same random mix, where one takes each write as a run of up to
// three blocks and the other as that many one-page writes. Writes
// outnumber everything else, so the elements spend most of the mix in
// forced cleaning; frees and cleaning passes are mixed in. Two variants
// reach the edge of the forced-cleaning rule, where free space sits at
// its bound with nothing to reclaim: no spare area beyond the cleaning
// slack, and a wear ceiling that retires blocks until the element runs
// out of space. The run's duration and error must equal the single
// pages', and the two backends must stay identical.
func TestWritePagesMatchesSinglePages(t *testing.T) {
	variants := map[string]func(*Config){
		"default":      func(*Config) {},
		"informed":     func(c *Config) { c.Informed = true },
		"wear-aware":   func(c *Config) { c.WearAware, c.WearDelta = true, 2 },
		"cost-benefit": func(c *Config) { c.CostBenefit = true },
		"no-spare":     func(c *Config) { c.Overprovision = 0 },
		"wear-ceiling": func(c *Config) { c.Overprovision, c.WearCeiling = 0.3, 6 },
	}
	for _, s := range allSchemes() {
		for name, mutate := range variants {
			t.Run(s.String()+"/"+name, func(t *testing.T) {
				cfg := schemeConfig()
				mutate(&cfg)
				run, err := NewBackend(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				pages, err := NewBackend(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(s) + 7))
				n := run.LogicalPages()
				ppb := cfg.Geom.PagesPerBlock
				for i := 0; i < 3000; i++ {
					lpn := rng.Intn(n)
					switch r := rng.Intn(20); {
					case r < 14:
						k := min(1+rng.Intn(3*ppb), n-lpn)
						got, gotErr := run.WritePages(lpn, k)
						var want sim.Time
						var wantErr error
						for p := lpn; p < lpn+k && wantErr == nil; p++ {
							var d sim.Time
							d, wantErr = pages.WritePages(p, 1)
							want += d
						}
						if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("op %d: run of %d pages from %d: %v, %v; pages %v, %v", i, k, lpn, got, gotErr, want, wantErr)
						}
						if gotErr != nil {
							// Only a worn-out element may fail.
							if !errors.Is(gotErr, ErrNoSpace) || cfg.WearCeiling == 0 {
								t.Fatalf("op %d: %v", i, gotErr)
							}
							i = 3000
						}
					case r < 16:
						x, err1 := run.ReadPage(lpn)
						y, err2 := pages.ReadPage(lpn)
						if x != y || err1 != nil || err2 != nil {
							t.Fatalf("op %d: read %d: %v, %v vs %v, %v", i, lpn, x, err1, y, err2)
						}
					case r < 18:
						for p := lpn; p < min(lpn+ppb, n); p++ {
							if err1, err2 := run.Free(p), pages.Free(p); err1 != nil || err2 != nil {
								t.Fatalf("op %d: free %d: %v, %v", i, p, err1, err2)
							}
						}
					default:
						if run.CanClean() != pages.CanClean() {
							t.Fatalf("op %d: CanClean differs", i)
						}
						if run.CanClean() {
							x, err1 := run.CleanOnce()
							y, err2 := pages.CleanOnce()
							if x != y || fmt.Sprint(err1) != fmt.Sprint(err2) {
								t.Fatalf("op %d: clean: %v, %v vs %v, %v", i, x, err1, y, err2)
							}
						}
					}
					if i%300 == 0 {
						if err := sameBackend(run, pages); err != nil {
							t.Fatalf("after op %d: %v", i, err)
						}
					}
				}
				if err := sameBackend(run, pages); err != nil {
					t.Fatal(err)
				}
				if st := run.Stats(); st.Cleans == 0 {
					t.Fatalf("no cleaning in %+v", st)
				}
			})
		}
	}
}

// TestWritePagesChecksTheWholeRun: a run that leaves the logical space,
// or has no pages, fails before writing anything.
func TestWritePagesChecksTheWholeRun(t *testing.T) {
	for _, s := range allSchemes() {
		b, err := NewBackend(s, schemeConfig())
		if err != nil {
			t.Fatal(err)
		}
		n := b.LogicalPages()
		for _, bad := range [][2]int{{n - 2, 3}, {-1, 2}, {0, 0}, {n, 1}} {
			if _, err := b.WritePages(bad[0], bad[1]); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("%v: WritePages(%d, %d) = %v, want ErrOutOfRange", s, bad[0], bad[1], err)
			}
		}
		if st := b.Stats(); st.HostWrites != 0 || b.Mapped(n-2) {
			t.Fatalf("%v: a rejected run wrote: %+v", s, st)
		}
		if _, err := b.WritePages(n-2, 2); err != nil {
			t.Fatalf("%v: WritePages up to the last page: %v", s, err)
		}
	}
}

// TestWritePagesOneProgramPerSegment: on an idle element, a run costs
// its pages' program time and nothing else, however many blocks it
// spans.
func TestWritePagesOneProgramPerSegment(t *testing.T) {
	cfg := schemeConfig()
	el := newElement(t, cfg)
	k := 3*cfg.Geom.PagesPerBlock + 5
	d, err := el.WritePages(4, k)
	if err != nil {
		t.Fatal(err)
	}
	page := cfg.Timing.PageProgram + sim.Time(cfg.Geom.PageSize)*cfg.Timing.BusPerByte
	if want := sim.Time(k) * page; d != want {
		t.Fatalf("run of %d pages took %v, want %v", k, d, want)
	}
	if st := el.Stats(); st.HostWrites != int64(k) {
		t.Fatalf("HostWrites %d, want %d", st.HostWrites, k)
	}
	if err := el.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
