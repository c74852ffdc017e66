package ssd

import (
	"ossd/internal/sim"
	"ossd/internal/trace"
)

// This file maps byte-range operations onto per-element page operations
// for the two layouts. All write amplification in the simulator arises
// here: FullStripe writes rewrite every page of each touched stripe (the
// mapping granularity is the stripe), reading back old data for the
// pages the host did not cover.

// elemsFor computes the set of elements a queued operation will occupy,
// used by the dispatch scheduler. It is conservative with respect to
// mapping state (which may change while the request queues): it depends
// only on the byte range. The returned slice is device-owned scratch,
// valid until the next call — sched.Queue.Push interns the set.
func (d *Device) elemsFor(op trace.Op) []int {
	touched := d.touched
	for e := range touched {
		touched[e] = false
	}
	switch d.cfg.Layout {
	case FullStripe:
		if op.Kind == trace.Write {
			// Whole stripes are rewritten: every element participates.
			for e := range touched {
				touched[e] = true
			}
		} else {
			d.forEachStripePage(op.Offset, op.Size, func(e, elpn int, covered bool) {
				if covered {
					touched[e] = true
				}
			})
		}
	case Interleaved:
		d.forEachPage(op.Offset, op.Size, func(e, elpn int, full bool) {
			touched[e] = true
		})
	}
	out := d.elemScratch[:0]
	for e, t := range touched {
		if t {
			out = append(out, e)
		}
	}
	// The scratch is made with room for every element, so out never
	// outgrows it and the header is never stored back: that store would
	// be a pointer write on every enqueue.
	return out
}

// pageHome maps a flash-page-sized logical page to its element and
// element-local page. Homogeneous devices round-robin over the whole
// gang; heterogeneous ones (§3.3) split the space into an SLC region
// interleaved over the SLC elements followed by an MLC region over the
// MLC elements.
func (d *Device) pageHome(l int64) (e, elpn int) {
	if d.cfg.MLCElements == 0 {
		return int(l) % d.cfg.Elements, int(l) / d.cfg.Elements
	}
	slcElems := int64(d.cfg.Elements - d.cfg.MLCElements)
	slcPages := int64(d.elems[0].LogicalPages()) * slcElems
	if l < slcPages {
		return int(l % slcElems), int(l / slcElems)
	}
	m := l - slcPages
	mlc := int64(d.cfg.MLCElements)
	return int(slcElems) + int(m%mlc), int(m / mlc)
}

// forEachPage visits every flash-page-sized logical page intersecting
// [off, off+size) under the Interleaved layout. full reports whether the
// operation covers the page completely.
func (d *Device) forEachPage(off, size int64, fn func(e, elpn int, full bool)) {
	ps := int64(d.cfg.Geom.PageSize)
	end := off + size
	for l := off / ps; l*ps < end; l++ {
		pStart, pEnd := l*ps, (l+1)*ps
		full := off <= pStart && pEnd <= end
		e, elpn := d.pageHome(l)
		fn(e, elpn, full)
	}
}

// forEachStripePage visits every page of every stripe intersecting
// [off, off+size) under the FullStripe layout. covered reports whether
// the operation's byte range intersects that page at all; the write path
// visits all pages of touched stripes, the read path only covered ones.
func (d *Device) forEachStripePage(off, size int64, fn func(e, elpn int, covered bool)) {
	ps := int64(d.cfg.Geom.PageSize)
	stripe := d.cfg.StripeBytes
	end := off + size
	for s := off / stripe; s*stripe < end; s++ {
		sBase := s * stripe
		for e := 0; e < d.cfg.Elements; e++ {
			chunkBase := sBase + int64(e)*d.chunkBytes
			for k := 0; k < d.pagesPerChunk; k++ {
				pStart := chunkBase + int64(k)*ps
				pEnd := pStart + ps
				covered := pStart < end && off < pEnd
				elpn := int(s)*d.pagesPerChunk + k
				fn(e, elpn, covered)
			}
		}
	}
}

// exec executes a dispatched request against the FTLs, mutating mapping
// state, and returns the per-element service durations. Elements with a
// zero duration were not touched. The returned slice is device-owned
// scratch, valid until the next dispatch — serve consumes it before any
// reentrant dispatch can run.
func (d *Device) exec(req *request) []sim.Time {
	durs := d.durScratch
	for e := range durs {
		durs[e] = 0
	}
	op := req.Op
	if op.Kind == trace.Free {
		// Deallocation is a mapping-table update: zero medium time.
		d.applyFree(op)
		return durs
	}
	// Fault injection: a dead element fails the request outright (zero
	// durations, so it completes immediately as an error); transient
	// faults add their retry cost to the element durations below.
	if d.flt != nil && d.injectFaults(req, durs) {
		return durs
	}
	fail := func(err error) { req.Err = err }
	switch d.cfg.Layout {
	case FullStripe:
		d.execFullStripe(op, durs, fail)
	case Interleaved:
		d.execInterleaved(op, durs, fail)
	}
	return durs
}

func (d *Device) execFullStripe(op trace.Op, durs []sim.Time, fail func(error)) {
	ps := int64(d.cfg.Geom.PageSize)
	stripe := d.cfg.StripeBytes
	end := op.End()
	for s := op.Offset / stripe; s*stripe < end; s++ {
		sBase := s * stripe
		fullStripe := op.Offset <= sBase && sBase+stripe <= end
		for e := 0; e < d.cfg.Elements; e++ {
			el := d.elems[e]
			chunkBase := sBase + int64(e)*d.chunkBytes
			for k := 0; k < d.pagesPerChunk; k++ {
				pStart := chunkBase + int64(k)*ps
				pEnd := pStart + ps
				covered := pStart < end && op.Offset < pEnd
				elpn := int(s)*d.pagesPerChunk + k
				switch op.Kind {
				case trace.Read:
					if !covered {
						continue
					}
					dur, err := el.ReadPage(elpn)
					durs[e] += dur
					if err != nil {
						fail(err)
						return
					}
				case trace.Write:
					// Partial stripe: read back every page the host did
					// not fully overwrite (read-modify-write, §3.4).
					fullPage := op.Offset <= pStart && pEnd <= end
					if !fullStripe && !fullPage && el.Mapped(elpn) {
						dur, err := el.ReadPage(elpn)
						durs[e] += dur
						if err != nil {
							fail(err)
							return
						}
					}
					// The stripe is the mapping unit: rewrite every page.
					dur, err := el.WritePage(elpn)
					durs[e] += dur
					if err != nil {
						fail(err)
						return
					}
				}
			}
		}
	}
}

func (d *Device) execInterleaved(op trace.Op, durs []sim.Time, fail func(error)) {
	ps := int64(d.cfg.Geom.PageSize)
	end := op.End()
	for l := op.Offset / ps; l*ps < end; l++ {
		e, elpn := d.pageHome(l)
		el := d.elems[e]
		pStart, pEnd := l*ps, (l+1)*ps
		switch op.Kind {
		case trace.Read:
			dur, err := el.ReadPage(elpn)
			durs[e] += dur
			if err != nil {
				fail(err)
				return
			}
		case trace.Write:
			full := op.Offset <= pStart && pEnd <= end
			if !full && el.Mapped(elpn) {
				// Sub-page write: read-modify-write of the single page.
				dur, err := el.ReadPage(elpn)
				durs[e] += dur
				if err != nil {
					fail(err)
					return
				}
			}
			dur, err := el.WritePage(elpn)
			durs[e] += dur
			if err != nil {
				fail(err)
				return
			}
		}
	}
}

// applyFree processes a deallocation notification: every logical mapping
// unit (page or stripe) fully covered by the range is freed. Partially
// covered units stay live — the device cannot know the rest is dead.
func (d *Device) applyFree(op trace.Op) {
	end := op.End()
	switch d.cfg.Layout {
	case FullStripe:
		stripe := d.cfg.StripeBytes
		first := (op.Offset + stripe - 1) / stripe
		last := end/stripe - 1
		for s := first; s <= last; s++ {
			for e := 0; e < d.cfg.Elements; e++ {
				for k := 0; k < d.pagesPerChunk; k++ {
					// Free errors cannot happen for in-range stripes.
					_ = d.elems[e].Free(int(s)*d.pagesPerChunk + k)
				}
			}
		}
	case Interleaved:
		ps := int64(d.cfg.Geom.PageSize)
		first := (op.Offset + ps - 1) / ps
		last := end/ps - 1
		for l := first; l <= last; l++ {
			e, elpn := d.pageHome(l)
			_ = d.elems[e].Free(elpn)
		}
	}
}
