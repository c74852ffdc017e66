package fault

import (
	"testing"

	"ossd/internal/sim"
)

// overflowPlans carry per-event costs whose nanosecond value overflows
// sim.Time: the first wraps on the microsecond scaling, the second
// once a few retries are summed on the clock.
var overflowPlans = []string{
	`{"transient":{"rate":0.5,"retry_us":9223372036854775807}}`,
	`{"transient":{"rate":0.5,"retry_us":9223372036854776}}`,
	`{"remap_cost_us":9223372036854775807,"wear_ceiling":2}`,
	`{"remap_cost_us":9223372036854776,"wear_ceiling":2}`,
}

// FuzzParsePlan feeds arbitrary JSON to Parse. It must never panic, and
// every plan it accepts must charge positive costs within MaxCostUs.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range append([]string{
		`{"seed":9,"wear_ceiling":8,"remap_cost_us":300,"transient":{"rate":0.002,"burst":4,"retry_us":400,"kinds":"rw"}}`,
		`{"deaths":[{"element":3,"after_ops":0}],"power_loss":{"at_ops":100,"replay_frac":0.5}}`,
		`{"transient":{"rate":0.99,"retry_us":1000000},"remap_cost_us":1000000}`,
		`{}`,
	}, overflowPlans...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse([]byte(src))
		if err != nil {
			return
		}
		for _, c := range []sim.Time{p.RetryCost(), p.RemapCost()} {
			if c <= 0 || c > MaxCostUs*sim.Microsecond {
				t.Fatalf("accepted plan %s charges %v, want (0, %v]", src, c, MaxCostUs*sim.Microsecond)
			}
		}
	})
}
