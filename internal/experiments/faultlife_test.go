package experiments

import (
	"reflect"
	"testing"
)

// The accelerated-lifetime sweep must show the wear-out story: the
// no-ceiling baseline never retires a block, every ceiling retires a
// monotonically growing count with a degrading write tail, and the
// lowest ceiling hits its cliff (host-visible errors) first.
func TestFaultLifeWearOutCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	r, err := FaultLife(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Configs) != len(r.Points) || len(r.Configs) < 2 {
		t.Fatalf("malformed result: %d configs, %d point series", len(r.Configs), len(r.Points))
	}
	firstRetired := func(pts []FaultLifePoint) int {
		for i, p := range pts {
			if p.Retired > 0 {
				return i
			}
		}
		return len(pts)
	}
	for i, name := range r.Configs {
		pts := r.Points[i]
		for j := 1; j < len(pts); j++ {
			if pts[j].Retired < pts[j-1].Retired || pts[j].Remapped < pts[j-1].Remapped ||
				pts[j].Errors < pts[j-1].Errors {
				t.Errorf("%s: counters regressed at checkpoint %d: %+v -> %+v", name, j, pts[j-1], pts[j])
			}
		}
		last := pts[len(pts)-1]
		if i == 0 {
			if last.Retired != 0 || last.Errors != 0 {
				t.Errorf("baseline retired %d blocks, failed %d ops; want 0/0", last.Retired, last.Errors)
			}
			continue
		}
		if last.Retired == 0 {
			t.Errorf("%s: ceiling retired nothing", name)
		}
		if last.P99WriteMs <= pts[0].P99WriteMs {
			t.Errorf("%s: no tail degradation: p99 %v at first checkpoint, %v at last",
				name, pts[0].P99WriteMs, last.P99WriteMs)
		}
	}
	// Lower ceilings retire earlier and hit the cliff.
	lowest := r.Points[len(r.Points)-1]
	if firstRetired(lowest) > firstRetired(r.Points[1]) {
		t.Errorf("lowest ceiling retired later (checkpoint %d) than highest (%d)",
			firstRetired(lowest), firstRetired(r.Points[1]))
	}
	if lowest[len(lowest)-1].Errors == 0 {
		t.Error("lowest ceiling never hit the wear-out cliff")
	}
}

// Worker count must not leak into the sweep (same contract as the rest
// of the experiment suite).
func TestFaultLifeDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	serial, err := FaultLife(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := FaultLife(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("worker count changed the result:\n%+v\n%+v", serial, parallel)
	}
}
