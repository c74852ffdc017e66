package experiments

import (
	"testing"

	"ossd/internal/workload"
)

// TestTable5EventBudget gates the host work of the Table 5 replay, the
// cost that dominates repro, with a count instead of a clock: engine
// events per host op on the first Table 5 row, seed 1. The count is
// exact and repeatable, so the gate has no noise.
//
// With one completion event per busy element the replay took 43,104
// events for 13,399 ops on the default FTL (3.217 per op) and 42,924 on
// the informed one (3.204). With one event per distinct finish instant
// it takes 28,678 (2.140) and 28,507 (2.128). The budget is those counts
// plus 2%.
func TestTable5EventBudget(t *testing.T) {
	for _, c := range []struct {
		informed bool
		perOp    float64
	}{{false, 2.140}, {true, 2.128}} {
		d, err := table5Device(c.informed)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := workload.Postmark(table5Postmark(table5Transactions[0], 1, d.LogicalBytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Drive(stream); err != nil {
			t.Fatal(err)
		}
		if d.Raw.GCStats().Cleans == 0 {
			t.Fatalf("informed=%v: the replay never cleaned", c.informed)
		}
		events, ops := d.Engine().Processed(), d.Raw.Metrics().Requests
		if got, budget := float64(events)/float64(ops), c.perOp*1.02; got > budget {
			t.Errorf("informed=%v: %d events for %d ops, %.3f per op, over the budget of %.3f",
				c.informed, events, ops, got, budget)
		}
	}
}
