package fault

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"ossd/internal/sim"
)

// Draws must be a pure function of (seed, element, seq): evaluating in
// any order, any number of times, yields the same outcomes.
func TestTransientDeterminism(t *testing.T) {
	p := &Plan{Seed: 42, Transient: &Transient{Rate: 0.01, Burst: 4}}
	forward := make([]bool, 10000)
	for s := range forward {
		forward[s] = p.TransientAt(3, int64(s), true)
	}
	for s := len(forward) - 1; s >= 0; s-- {
		if got := p.TransientAt(3, int64(s), true); got != forward[s] {
			t.Fatalf("seq %d: reverse-order draw %v != forward %v", s, got, forward[s])
		}
	}
	q := &Plan{Seed: 43, Transient: &Transient{Rate: 0.01, Burst: 4}}
	same := 0
	for s := 0; s < 10000; s++ {
		if q.TransientAt(3, int64(s), true) == forward[s] {
			same++
		}
	}
	if same == 10000 {
		t.Fatalf("changing the seed did not change the injection schedule")
	}
}

// One draw decides a whole burst window, and the long-run per-op rate
// stays close to Rate.
func TestTransientBurstAndRate(t *testing.T) {
	const rate, burst, n = 0.02, 8, 400000
	p := &Plan{Seed: 7, Transient: &Transient{Rate: rate, Burst: burst}}
	faults := 0
	for s := int64(0); s < n; s++ {
		hit := p.TransientAt(0, s, false)
		if hit {
			faults++
		}
		if want := p.TransientAt(0, (s/burst)*burst, false); hit != want {
			t.Fatalf("seq %d disagrees with its window head", s)
		}
	}
	got := float64(faults) / n
	if math.Abs(got-rate) > rate/2 {
		t.Fatalf("observed rate %g, want ~%g", got, rate)
	}
}

func TestTransientKinds(t *testing.T) {
	p := &Plan{Seed: 1, Transient: &Transient{Rate: 0.5, Kinds: "w"}}
	for s := int64(0); s < 1000; s++ {
		if p.TransientAt(0, s, false) {
			t.Fatalf("kinds=w faulted a read at seq %d", s)
		}
	}
	writes := 0
	for s := int64(0); s < 1000; s++ {
		if p.TransientAt(0, s, true) {
			writes++
		}
	}
	if writes == 0 {
		t.Fatalf("kinds=w never faulted a write")
	}
}

func TestDeadAt(t *testing.T) {
	p := &Plan{Deaths: []Death{{Element: 2, AfterOps: 100}}}
	if p.DeadAt(2, 99) {
		t.Fatalf("element dead before its death point")
	}
	if !p.DeadAt(2, 100) {
		t.Fatalf("element alive at its death point")
	}
	if p.DeadAt(1, 1000) {
		t.Fatalf("unlisted element died")
	}
}

func TestCosts(t *testing.T) {
	p := &Plan{}
	if got := p.RetryCost(); got != 500*sim.Microsecond {
		t.Fatalf("default retry cost %v", got)
	}
	if got := p.RemapCost(); got != 200*sim.Microsecond {
		t.Fatalf("default remap cost %v", got)
	}
	q := &Plan{RemapCostUs: 300, Transient: &Transient{Rate: 0.1, RetryUs: 400}}
	if got := q.RetryCost(); got != 400*sim.Microsecond {
		t.Fatalf("retry cost %v, want 400us", got)
	}
	if got := q.RemapCost(); got != 300*sim.Microsecond {
		t.Fatalf("remap cost %v, want 300us", got)
	}
}

func TestValidate(t *testing.T) {
	bad := []*Plan{
		{Transient: &Transient{Rate: 1.5}},
		{Transient: &Transient{Rate: -0.1}},
		{Transient: &Transient{Rate: 0.1, Kinds: "x"}},
		{Deaths: []Death{{Element: -1}}},
		{WearCeiling: -1},
		{RemapCostUs: -1},
		{RemapCostUs: MaxCostUs + 1},
		{Transient: &Transient{Rate: 0.1, RetryUs: MaxCostUs + 1}},
		{PowerLoss: &PowerLoss{AtOps: 0}},
		{PowerLoss: &PowerLoss{AtOps: 10, ReplayFrac: 2}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad plan %d validated", i)
		}
	}
	good := &Plan{
		Seed:        9,
		Transient:   &Transient{Rate: 0.01, Burst: 4, RetryUs: 400, Kinds: "rw"},
		Deaths:      []Death{{Element: 1, AfterOps: 500}},
		WearCeiling: 16,
		RemapCostUs: 300,
		PowerLoss:   &PowerLoss{AtOps: 1000, ReplayFrac: 0.5},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	if (*Plan)(nil).Validate() != nil {
		t.Fatalf("nil plan should validate")
	}
}

func TestInjects(t *testing.T) {
	if (&Plan{WearCeiling: 8}).Injects() {
		t.Fatalf("wear-only plan should not wrap non-flash devices")
	}
	if !(&Plan{Transient: &Transient{Rate: 0.01}}).Injects() {
		t.Fatalf("transient plan should inject")
	}
	if !(&Plan{Deaths: []Death{{Element: 0, AfterOps: 1}}}).Injects() {
		t.Fatalf("death plan should inject")
	}
}

func TestParseAndLoad(t *testing.T) {
	if _, err := Parse([]byte(`{"seed":1,"bogus":2}`)); err == nil {
		t.Fatalf("unknown field accepted")
	}
	if _, err := Parse([]byte(`{"transient":{"rate":2}}`)); err == nil {
		t.Fatalf("invalid plan accepted")
	}
	// Costs that overflow the simulated clock once scaled to nanoseconds.
	for _, body := range overflowPlans {
		if _, err := Parse([]byte(body)); err == nil {
			t.Fatalf("overflowing plan accepted: %s", body)
		}
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	body := []byte(`{"seed":9,"wear_ceiling":8,"transient":{"rate":0.002,"burst":4,"retry_us":400}}`)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 || p.WearCeiling != 8 || p.Transient.Rate != 0.002 {
		t.Fatalf("loaded plan %+v", p)
	}
}
