package ssd

import (
	"ossd/internal/ftl"
	"ossd/internal/sim"
	"ossd/internal/trace"
)

// This file maps byte-range operations onto the elements for the two
// layouts. A request is planned as at most one run per element: the
// element-local pages it touches there, which are always consecutive,
// and the leading and trailing pages it covers only in part. Each FTL
// then services its run in one call. All write amplification in the
// simulator arises here: FullStripe writes rewrite every page of each
// touched stripe (the mapping granularity is the stripe), reading back
// old data for the pages the host did not cover.
//
// Failure rule: every element of a request runs its part until it
// finishes or hits its own first error, and the request reports the
// first error in element order.

// run is one element's share of a request: n element-local pages from
// first, in address order. The first head and the last tail of them are
// pages the request does not cover completely, which a write reads back
// when they hold data (read-modify-write); head+tail <= n. dur is the
// element's service time for the run, which exec fills in; the planner
// leaves it zero.
type run struct {
	elem, first, n int
	head, tail     int
	dur            sim.Time
}

// plan returns the runs of the byte range [off, end), in no particular
// element order. whole plans every page of every stripe the range
// touches (FullStripe writes); otherwise a run holds the pages the
// range intersects. It costs O(min(pages, elements)) on the Interleaved
// layout and O(elements) on FullStripe, with no per-page walk. The
// returned slice is device-owned scratch, valid until the next call.
func (d *Device) plan(off, end int64, whole bool) []run {
	runs := d.runs[:0]
	if d.cfg.Layout == FullStripe {
		return d.planStripes(runs, off, end, whole)
	}
	ps := int64(d.cfg.Geom.PageSize)
	// Most requests fit in one page: spare them the second division.
	g0, g1 := off/ps, off/ps+1
	if end > g1*ps {
		g1 = (end + ps - 1) / ps
	}
	return planPages(runs, g0, g1, d.cfg.Elements, partial(off, end, g0, ps), partial(off, end, g1-1, ps))
}

// partial reports whether [off, end) covers page g (of ps bytes) only in
// part.
func partial(off, end, g, ps int64) bool { return off > g*ps || end < (g+1)*ps }

// planPages appends the runs of pages [g0, g1) interleaved round-robin
// over elems elements: page g lives on element g%elems at element-local
// page g/elems. It locates g0 once and steps from there. head and tail
// report whether the first and last page are partial.
func planPages(runs []run, g0, g1 int64, elems int, head, tail bool) []run {
	pages := int(g1 - g0)
	e, q := int(g0%int64(elems)), int(g0/int64(elems))
	// The first extra runs of the rotation hold per+1 pages, the rest
	// per. The last page belongs to run last.
	per, extra, last := 1, 0, pages-1
	if pages > elems {
		per, extra = pages/elems, pages%elems
		last = extra - 1
		if extra == 0 {
			last = elems - 1
		}
	}
	start := len(runs)
	// Runs are filled in place, field by field: a composite literal is
	// built on the stack and copied in with wide moves that stall on
	// the narrow stores just made.
	runs = runs[:start+min(pages, elems)]
	for i := start; i < len(runs); i++ {
		r := &runs[i]
		r.elem, r.first, r.n, r.head, r.tail, r.dur = e, q, per, 0, 0, 0
		if i-start < extra {
			r.n++
		}
		if e++; e == elems {
			e, q = 0, q+1
		}
	}
	if head {
		runs[start].head = 1
	}
	// A one-page range's single page is its head.
	if r := &runs[start+last]; tail && r.head < r.n {
		r.tail = 1
	}
	return runs
}

// stripePos is a page number as a stripe and a page within it, so that
// counting one element's pages before it is a clamp, not a division.
type stripePos struct{ s, k int64 }

// before returns how many pages of element e (ppc pages per stripe
// chunk) precede p: the element-local number of its first page at or
// after p.
func (p stripePos) before(e, ppc int64) int {
	return int(p.s*ppc + min(max(p.k-e*ppc, 0), ppc))
}

// planStripes is plan for the FullStripe layout, where stripe s holds
// chunk s of every element in element order. An element's pages in a
// range of stripes are consecutive, so even a multi-stripe request is
// one run per element.
func (d *Device) planStripes(runs []run, off, end int64, whole bool) []run {
	ps := int64(d.cfg.Geom.PageSize)
	ppc := int64(d.pagesPerChunk)
	pps := ppc * int64(d.cfg.Elements)
	at := func(g int64) stripePos { return stripePos{g / pps, g % pps} }
	lo, hi := off/ps, (end+ps-1)/ps
	if whole {
		lo, hi = lo/pps*pps, (hi+pps-1)/pps*pps
	}
	from, to := at(lo), at(hi)
	full0, full1 := at((off+ps-1)/ps), at(end/ps)
	for e := range int64(d.cfg.Elements) {
		first, last := from.before(e, ppc), to.before(e, ppc)
		if last == first {
			continue
		}
		r := run{elem: int(e), first: first, n: last - first}
		// The pages the range covers completely are consecutive too;
		// the rest sit at the run's ends.
		if f0, f1 := full0.before(e, ppc), full1.before(e, ppc); f1 > f0 {
			r.head, r.tail = f0-first, last-f1
		} else {
			r.head = r.n
		}
		runs = append(runs, r)
	}
	return runs
}

// elemsFor computes the set of elements a queued operation will occupy,
// used by the dispatch scheduler. It is conservative with respect to
// mapping state (which may change while the request queues): it depends
// only on the byte range. The returned slice is device-owned scratch,
// valid until the next call — sched.Queue.Push interns the set, in any
// order.
func (d *Device) elemsFor(op trace.Op) []int {
	// The scratch is made with room for every element, so out never
	// outgrows it and the header is never stored back: that store would
	// be a pointer write on every enqueue.
	out := d.elemScratch[:0]
	runs := d.plan(op.Offset, op.End(), d.wholeStripes(op))
	for i := range runs {
		out = append(out, runs[i].elem)
	}
	return out
}

// wholeStripes reports whether op rewrites every page of the stripes it
// touches: a FullStripe write.
func (d *Device) wholeStripes(op trace.Op) bool {
	return d.cfg.Layout == FullStripe && op.Kind == trace.Write
}

// exec executes a dispatched request against the FTLs, mutating mapping
// state, and returns its runs with their service durations filled in.
// A run with a zero duration did no media work, and a free returns no
// runs. The returned slice is device-owned scratch, valid until the
// next dispatch — serve consumes it before any reentrant dispatch can
// run.
func (d *Device) exec(req *request) []run {
	op := req.Op
	if op.Kind == trace.Free {
		// Deallocation is a mapping-table update: zero medium time.
		d.applyFree(op)
		return nil
	}
	runs := d.plan(op.Offset, op.End(), d.wholeStripes(op))
	// Fault injection: a dead element fails the request outright (zero
	// durations, so it completes immediately as an error); transient
	// faults add their retry cost to the run durations below.
	if d.flt != nil && d.injectFaults(req, runs) {
		return runs
	}
	failed := len(d.elems) // the element whose error the request reports
	for i := range runs {
		r := &runs[i]
		el := d.elems[r.elem]
		var dur sim.Time
		var err error
		if op.Kind == trace.Write {
			dur, err = writeRun(el, r)
		} else {
			dur, err = readRun(el, r)
		}
		r.dur += dur
		if err != nil && r.elem < failed {
			req.Err, failed = err, r.elem
		}
	}
	return runs
}

// readRun reads a run page by page, stopping at the first error.
func readRun(el ftl.Backend, r *run) (sim.Time, error) {
	var total sim.Time
	for p := r.first; p < r.first+r.n; p++ {
		d, err := el.ReadPage(p)
		total += d
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// writeRun writes a run, stopping at the first error. A partly covered
// page at either end that holds data is read back first
// (read-modify-write, §3.4), and the write splits around each such
// read, so every page is still read and written in address order.
func writeRun(el ftl.Backend, r *run) (sim.Time, error) {
	var total sim.Time
	from, end := r.first, r.first+r.n
	for p := r.first; p < end; p++ {
		if p == r.first+r.head {
			// Skip the pages the request covers completely.
			if p = end - r.tail; p == end {
				break
			}
		}
		if !el.Mapped(p) {
			continue
		}
		if p > from {
			d, err := el.WritePages(from, p-from)
			total += d
			if err != nil {
				return total, err
			}
			from = p
		}
		d, err := el.ReadPage(p)
		total += d
		if err != nil {
			return total, err
		}
	}
	d, err := el.WritePages(from, end-from)
	return total + d, err
}

// applyFree processes a deallocation notification: every logical mapping
// unit (page or stripe) fully covered by the range is freed. Partially
// covered units stay live — the device cannot know the rest is dead.
func (d *Device) applyFree(op trace.Op) {
	unit := int64(d.cfg.Geom.PageSize)
	if d.cfg.Layout == FullStripe {
		unit = d.cfg.StripeBytes
	}
	lo, hi := (op.Offset+unit-1)/unit*unit, op.End()/unit*unit
	if lo >= hi {
		return
	}
	runs := d.plan(lo, hi, false)
	for i := range runs {
		r := &runs[i]
		el := d.elems[r.elem]
		for p := r.first; p < r.first+r.n; p++ {
			// Free errors cannot happen for in-range units.
			_ = el.Free(p)
		}
	}
}
