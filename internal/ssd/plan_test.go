package ssd

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ossd/internal/ftl"
	"ossd/internal/sim"
	"ossd/internal/trace"
)

// The planner is checked against a page-at-a-time reference of the two
// layouts, which visits every page in address order, writes one page
// per call and stops a request at its first failing page.

// pageHome maps a flash-page-sized logical page to its element and
// element-local page through the planner: the home of a one-page range.
func (d *Device) pageHome(l int64) (e, elpn int) {
	ps := int64(d.cfg.Geom.PageSize)
	r := d.plan(l*ps, (l+1)*ps, false)[0]
	return r.elem, r.first
}

// refPageHome is the closed form of the Interleaved layout: pages
// round-robin over the whole gang.
func refPageHome(d *Device, l int64) (e, elpn int) {
	return int(l) % d.cfg.Elements, int(l) / d.cfg.Elements
}

// refVisit calls fn for every page a request visits, in the reference
// order: covered reports whether the byte range intersects the page and
// full whether it covers it completely. Interleaved visits the pages
// the range intersects; FullStripe visits every page of every stripe it
// intersects.
func refVisit(d *Device, off, end int64, fn func(e, elpn int, covered, full bool) bool) {
	ps := int64(d.cfg.Geom.PageSize)
	if d.cfg.Layout == Interleaved {
		for l := off / ps; l*ps < end; l++ {
			e, elpn := refPageHome(d, l)
			if !fn(e, elpn, true, off <= l*ps && (l+1)*ps <= end) {
				return
			}
		}
		return
	}
	stripe := d.cfg.StripeBytes
	for s := off / stripe; s*stripe < end; s++ {
		for e := 0; e < d.cfg.Elements; e++ {
			chunkBase := s*stripe + int64(e)*d.chunkBytes
			for k := 0; k < d.pagesPerChunk; k++ {
				pStart := chunkBase + int64(k)*ps
				pEnd := pStart + ps
				if !fn(e, int(s)*d.pagesPerChunk+k, pStart < end && off < pEnd, off <= pStart && pEnd <= end) {
					return
				}
			}
		}
	}
}

// refElemsFor is the element set of the reference: every element of a
// FullStripe write, else every element with a page the range covers.
func refElemsFor(d *Device, op trace.Op) []int {
	touched := make([]bool, d.cfg.Elements)
	refVisit(d, op.Offset, op.End(), func(e, _ int, covered, _ bool) bool {
		touched[e] = touched[e] || covered || d.wholeStripes(op)
		return true
	})
	var out []int
	for e, t := range touched {
		if t {
			out = append(out, e)
		}
	}
	return out
}

// refExec executes a read or write page by page and stops the whole
// request at its first failing page.
func refExec(d *Device, op trace.Op) ([]sim.Time, error) {
	durs := make([]sim.Time, d.cfg.Elements)
	var failure error
	refVisit(d, op.Offset, op.End(), func(e, elpn int, covered, full bool) bool {
		el := d.elems[e]
		step := func(dur sim.Time, err error) bool {
			durs[e] += dur
			failure = err
			return err == nil
		}
		if op.Kind == trace.Read {
			return !covered || step(el.ReadPage(elpn))
		}
		if !full && el.Mapped(elpn) && !step(el.ReadPage(elpn)) {
			return false
		}
		return step(el.WritePages(elpn, 1))
	})
	return durs, failure
}

// refFree frees every mapping unit the range covers completely.
func refFree(d *Device, op trace.Op) {
	unit := int64(d.cfg.Geom.PageSize)
	if d.cfg.Layout == FullStripe {
		unit = d.cfg.StripeBytes
	}
	first, last := (op.Offset+unit-1)/unit, op.End()/unit
	if first >= last {
		return
	}
	refVisit(d, first*unit, last*unit, func(e, elpn int, _, _ bool) bool {
		_ = d.elems[e].Free(elpn)
		return true
	})
}

// planConfigs are the layouts the planner must agree with the reference
// on: interleaving over an even and an odd gang, a one-page-per-element
// stripe, and a 3-page chunk stripe under each FTL scheme.
func planConfigs() map[string]Config {
	wide := stripeConfig()
	wide.StripeBytes = 4 * 3 * 4096
	block, hybrid := wide, wide
	block.Scheme, hybrid.Scheme = ftl.BlockMapped, ftl.HybridLog
	odd := testConfig()
	odd.Elements = 3
	return map[string]Config{
		"interleaved":         testConfig(),
		"interleaved-3":       odd,
		"stripe":              stripeConfig(),
		"stripe-3page":        wide,
		"stripe-3page-block":  block,
		"stripe-3page-hybrid": hybrid,
	}
}

// randomOp draws an aligned or unaligned read, write or free of up to
// maxPages pages within the first frac of the device.
func randomOp(rng *rand.Rand, d *Device, maxPages int, frac float64) trace.Op {
	ps := int64(d.cfg.Geom.PageSize)
	space := int64(float64(d.LogicalBytes()) * frac)
	size := int64(1+rng.Intn(maxPages)) * ps
	off := rng.Int63n(space/ps) * ps
	if rng.Intn(3) == 0 { // unaligned
		off += rng.Int63n(ps)
		size -= rng.Int63n(ps)
	}
	size = min(size, space-off)
	kind := trace.Write
	switch r := rng.Intn(10); {
	case r < 3:
		kind = trace.Read
	case r < 4:
		kind = trace.Free
	}
	return trace.Op{Kind: kind, Offset: off, Size: size}
}

// sameState compares the FTL state of two devices element by element.
func sameState(a, b *Device) error {
	for e := range a.elems {
		x, y := a.elems[e], b.elems[e]
		if x.Stats() != y.Stats() {
			return fmt.Errorf("element %d stats %+v, want %+v", e, x.Stats(), y.Stats())
		}
		if x.Wear() != y.Wear() || x.FreeFraction() != y.FreeFraction() {
			return fmt.Errorf("element %d wear %+v free %v, want %+v free %v", e, x.Wear(), x.FreeFraction(), y.Wear(), y.FreeFraction())
		}
		for lpn := 0; lpn < x.LogicalPages(); lpn++ {
			if x.Mapped(lpn) != y.Mapped(lpn) {
				return fmt.Errorf("element %d lpn %d mapped %v, want %v", e, lpn, x.Mapped(lpn), y.Mapped(lpn))
			}
		}
		if err := x.CheckInvariants(); err != nil {
			return fmt.Errorf("element %d: %v", e, err)
		}
	}
	return nil
}

// TestPlanMatchesPageReference drives twin devices with the same random
// reads, writes and frees, one through the planner and one through the
// page-at-a-time reference, and requires the same element sets, the
// same per-element durations and the same FTL state throughout. The
// writes push the devices well into forced cleaning.
func TestPlanMatchesPageReference(t *testing.T) {
	for name, cfg := range planConfigs() {
		cfg.Informed = true
		t.Run(name, func(t *testing.T) {
			_, d := newDevice(t, cfg)
			_, ref := newDevice(t, cfg)
			rng := rand.New(rand.NewSource(int64(len(name))))
			maxPages := 4 * cfg.Elements * d.pagesPerChunkOrOne()
			for i := 0; i < 4000; i++ {
				op := randomOp(rng, d, maxPages, 0.9)
				got := slices.Sorted(slices.Values(d.elemsFor(op)))
				if want := refElemsFor(ref, op); !slices.Equal(got, want) {
					t.Fatalf("op %d %+v: elements %v, want %v", i, op, got, want)
				}
				req := &request{Op: op}
				durs := make([]sim.Time, cfg.Elements)
				for _, r := range d.exec(req) {
					durs[r.elem] += r.dur
				}
				var want []sim.Time
				var err error
				if op.Kind == trace.Free {
					refFree(ref, op)
					want = make([]sim.Time, cfg.Elements)
				} else {
					want, err = refExec(ref, op)
				}
				if req.Err != nil || err != nil {
					t.Fatalf("op %d %+v: errors %v, reference %v", i, op, req.Err, err)
				}
				if !slices.Equal(durs, want) {
					t.Fatalf("op %d %+v: durations %v, want %v", i, op, durs, want)
				}
				if i%500 == 0 {
					if err := sameState(d, ref); err != nil {
						t.Fatalf("after op %d: %v", i, err)
					}
				}
			}
			if err := sameState(d, ref); err != nil {
				t.Fatal(err)
			}
			if d.elems[0].Stats().Cleans == 0 {
				t.Fatal("the ops never made an element clean")
			}
		})
	}
}

// pagesPerChunkOrOne is the pages one element holds per stripe, one on
// the Interleaved layout.
func (d *Device) pagesPerChunkOrOne() int { return max(d.pagesPerChunk, 1) }

// TestPageHomeMatchesClosedForm: every page's one-page plan lands where
// the closed-form layout puts it, including on odd gang widths.
func TestPageHomeMatchesClosedForm(t *testing.T) {
	for _, name := range []string{"interleaved", "interleaved-3"} {
		_, d := newDevice(t, planConfigs()[name])
		for l := int64(0); l < d.LogicalBytes()/4096; l++ {
			e, elpn := d.pageHome(l)
			if we, welpn := refPageHome(d, l); e != we || elpn != welpn {
				t.Fatalf("%s page %d: home (%d, %d), want (%d, %d)", name, l, e, elpn, we, welpn)
			}
		}
	}
}

// TestPageHomeBijective: no two logical pages share a home, and every
// home is an element-local page its element has.
func TestPageHomeBijective(t *testing.T) {
	for _, name := range []string{"interleaved", "interleaved-3"} {
		_, d := newDevice(t, planConfigs()[name])
		seen := make(map[[2]int]bool)
		for l := int64(0); l < d.LogicalBytes()/4096; l++ {
			e, elpn := d.pageHome(l)
			if elpn < 0 || elpn >= d.elems[e].LogicalPages() {
				t.Fatalf("%s page %d: elpn %d of %d", name, l, elpn, d.elems[e].LogicalPages())
			}
			key := [2]int{e, elpn}
			if seen[key] {
				t.Fatalf("%s page %d collides at element %d page %d", name, l, e, elpn)
			}
			seen[key] = true
		}
	}
}

// TestPlanRuns pins the run shapes: a 1 MiB-style multi-lap range gives
// one run per element with the rotation's extra pages first, and the
// partial head and tail pages land on the runs that hold them.
func TestPlanRuns(t *testing.T) {
	_, d := newDevice(t, testConfig())
	// Pages 2..11 (10 pages) over 4 elements, head and tail partial.
	got := d.plan(2*4096+100, 11*4096+200, false)
	want := []run{
		{elem: 2, first: 0, n: 3, head: 1},
		{elem: 3, first: 0, n: 3, tail: 1},
		{elem: 0, first: 1, n: 2},
		{elem: 1, first: 1, n: 2},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("runs %+v, want %+v", got, want)
	}
	// A sub-page range is one run whose single page is its head.
	got = d.plan(4096+10, 4096+20, false)
	if want := []run{{elem: 1, first: 0, n: 1, head: 1}}; !slices.Equal(got, want) {
		t.Fatalf("runs %+v, want %+v", got, want)
	}
	// FullStripe, 3-page chunks: a write inside one chunk rewrites the
	// whole stripe; only element 1's covered pages 1..2 skip the read.
	cfg := stripeConfig()
	cfg.StripeBytes = 4 * 3 * 4096
	_, s := newDevice(t, cfg)
	got = s.plan(4*4096, 6*4096, true)
	want = []run{
		{elem: 0, first: 0, n: 3, head: 3},
		{elem: 1, first: 0, n: 3, head: 1},
		{elem: 2, first: 0, n: 3, head: 3},
		{elem: 3, first: 0, n: 3, head: 3},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("stripe runs %+v, want %+v", got, want)
	}
}

// failingBackend is an FTL whose writes fail with err.
type failingBackend struct {
	ftl.Backend
	err error
}

func (f failingBackend) WritePages(int, int) (sim.Time, error) { return 0, f.err }

// TestFailingElementKeepsOthersRunning pins the failure rule: a request
// that fails on some elements still programs its other elements' pages,
// and it reports the error of the lowest failing element, not the first
// one in address order.
func TestFailingElementKeepsOthersRunning(t *testing.T) {
	eng, d := newDevice(t, testConfig())
	errLow, errHigh := errors.New("element 0 failed"), errors.New("element 2 failed")
	d.elems[0] = failingBackend{d.elems[0], errLow}
	d.elems[2] = failingBackend{d.elems[2], errHigh}
	// Pages 2..5 live on elements 2, 3, 0 and 1, in that order.
	var got completion
	d.Submit(trace.Op{Kind: trace.Write, Offset: 2 * 4096, Size: 4 * 4096}, capture(eng, &got))
	eng.Run()
	if !got.fired || got.err != errLow {
		t.Fatalf("request completed %v with error %v, want %v", got.fired, got.err, errLow)
	}
	for e, elpn := range map[int]int{1: 1, 3: 0} {
		if el := d.elems[e]; el.Stats().HostWrites != 1 || !el.Mapped(elpn) {
			t.Errorf("element %d: %d pages written, page %d mapped %v; want its page written", e, el.Stats().HostWrites, elpn, el.Mapped(elpn))
		}
	}
}
