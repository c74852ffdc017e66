package ssd

import "fmt"

// CleanSetErr compares d's cleaning set with a full recompute of the
// cleaning predicate over every element, and reports the first element
// where they differ. Elements outside [elemLo, elemHi) must never be
// members.
func CleanSetErr(d *Device) error {
	for e, el := range d.elems {
		want := e >= d.elemLo && e < d.elemHi &&
			d.cfg.GCLow > 0 && el.FreeFraction() < d.cfg.GCLow && el.CanClean()
		got := d.cleanSet[e>>6]&(1<<(e&63)) != 0
		if got != want {
			return fmt.Errorf("element %d (owned [%d, %d)): in cleaning set %v, predicate %v",
				e, d.elemLo, d.elemHi, got, want)
		}
	}
	return nil
}

// ShardCleanSetErr applies CleanSetErr to every shard sub-device of a
// sharded device.
func ShardCleanSetErr(d *Device) error {
	for k, sd := range d.shard.subs {
		if err := CleanSetErr(sd); err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return nil
}
