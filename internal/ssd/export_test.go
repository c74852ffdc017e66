package ssd

import "fmt"

// CleanSetErr compares d's cleaning set with a full recompute of the
// cleaning predicate over every element, and reports the first element
// where they differ.
func CleanSetErr(d *Device) error {
	for e, el := range d.elems {
		want := d.cfg.GCLow > 0 && el.FreeFraction() < d.cfg.GCLow && el.CanClean()
		got := d.cleanSet[e>>6]&(1<<(e&63)) != 0
		if got != want {
			return fmt.Errorf("element %d: in cleaning set %v, predicate %v", e, got, want)
		}
	}
	return nil
}
