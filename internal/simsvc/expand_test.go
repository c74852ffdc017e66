package simsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ossd/internal/workload"
)

// template is a small, valid job template for expansion tests.
func template(ops int) JobSpec {
	return JobSpec{
		Profile:  "ssd",
		Workload: "synthetic",
		Params: workload.GenParams{
			Ops:                ops,
			CapacityBytes:      4 << 20,
			ReadFrac:           0.5,
			MeanInterarrivalUs: 50,
			Seed:               1,
		},
	}
}

// vals turns JSON literals into axis values.
func vals(lits ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(lits))
	for i, l := range lits {
		out[i] = json.RawMessage(l)
	}
	return out
}

// TestExpandCanonicalOrder pins the cell order: axes iterate in spec
// order with the last axis varying fastest, and coordinates carry the
// substituted values in axis order.
func TestExpandCanonicalOrder(t *testing.T) {
	spec := campaignSpec{
		Template: template(100),
		Axes: []axis{
			{Name: "params.seed", Values: vals("1", "2", "3")},
			{Name: "options.scheduler", Values: vals(`"fcfs"`, `"swtf"`)},
		},
	}
	cells, err := expand(spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	wantSeed := []int64{1, 1, 2, 2, 3, 3}
	wantSched := []string{"fcfs", "swtf", "fcfs", "swtf", "fcfs", "swtf"}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d: index %d", i, c.Index)
		}
		if c.Spec.Params.Seed != wantSeed[i] || c.Spec.Options.Scheduler != wantSched[i] {
			t.Errorf("cell %d: seed=%d sched=%q, want seed=%d sched=%q",
				i, c.Spec.Params.Seed, c.Spec.Options.Scheduler, wantSeed[i], wantSched[i])
		}
		if c.Coords[0].Name != "params.seed" || c.Coords[0].Value != strconv.FormatInt(wantSeed[i], 10) ||
			c.Coords[1].Name != "options.scheduler" || c.Coords[1].Value != wantSched[i] {
			t.Errorf("cell %d coords: %v", i, c.Coords)
		}
		// The template's untouched fields survive substitution.
		if c.Spec.Params.Ops != 100 || c.Spec.Profile != "ssd" {
			t.Errorf("cell %d lost template fields: %+v", i, c.Spec)
		}
	}
}

// TestExpandRange pins the integer-range convenience.
func TestExpandRange(t *testing.T) {
	spec := campaignSpec{
		Template: template(100),
		Axes:     []axis{{Name: "params.seed", Range: &axisRange{From: 1, To: 5, Step: 2}}},
	}
	cells, err := expand(spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, c := range cells {
		got = append(got, c.Spec.Params.Seed)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("range expanded to %v, want [1 3 5]", got)
	}
}

// TestExpandRangeBounded pins that a range is counted, not walked,
// before the cell guard sees it. An oversized range is rejected without
// materializing its values, and ranges that end at math.MaxInt64
// terminate instead of wrapping. expand runs under a deadline so a
// regression fails fast instead of hanging.
func TestExpandRangeBounded(t *testing.T) {
	spec := func(r axisRange) campaignSpec {
		return campaignSpec{Template: template(100), Axes: []axis{{Name: "params.seed", Range: &r}}}
	}
	expandRange := func(r axisRange) ([]*campaignCell, error) {
		type result struct {
			cells []*campaignCell
			err   error
		}
		done := make(chan result, 1)
		go func() {
			cells, err := expand(spec(r), 4096)
			done <- result{cells, err}
		}()
		select {
		case res := <-done:
			return res.cells, res.err
		case <-time.After(time.Second):
			// The runaway expansion keeps allocating in its goroutine:
			// stop the test binary rather than let it run on.
			panic(fmt.Sprintf("Expand of range %+v did not return within 1s", r))
		}
	}

	for _, r := range []axisRange{
		{From: 1, To: 10_000_000},
		{From: math.MinInt64, To: math.MaxInt64},
	} {
		if _, err := expandRange(r); err == nil || !strings.Contains(err.Error(), "exceeds 4096 cells") {
			t.Errorf("range %+v: err = %v, want the 4096-cell guard", r, err)
		}
	}
	for _, tc := range []struct {
		r    axisRange
		want []int64
	}{
		{axisRange{From: math.MaxInt64 - 1, To: math.MaxInt64}, []int64{math.MaxInt64 - 1, math.MaxInt64}},
		{axisRange{From: 0, To: math.MaxInt64, Step: math.MaxInt64}, []int64{0, math.MaxInt64}},
		{axisRange{From: math.MinInt64, To: math.MaxInt64, Step: math.MaxInt64}, []int64{math.MinInt64, -1, math.MaxInt64 - 1}},
	} {
		cells, err := expandRange(tc.r)
		if err != nil {
			t.Fatalf("range %+v: %v", tc.r, err)
		}
		var got []int64
		for _, c := range cells {
			got = append(got, c.Spec.Params.Seed)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("range %+v expanded to %v, want %v", tc.r, got, tc.want)
		}
	}

	// Rejection costs the same for any range: nothing is built per value.
	huge := spec(axisRange{From: 1, To: 10_000_000})
	if allocs := testing.AllocsPerRun(3, func() { _, _ = expand(huge, 4096) }); allocs > 20 {
		t.Errorf("rejecting a 1e7-value range made %v allocations", allocs)
	}
}

// TestExpandZeroAxes: a campaign with no axes is the one-cell campaign.
func TestExpandZeroAxes(t *testing.T) {
	cells, err := expand(campaignSpec{Template: template(100)}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || !reflect.DeepEqual(cells[0].Spec, template(100)) {
		t.Fatalf("zero-axis expansion: %+v", cells)
	}
}

// TestExpandDupKeys: a tenant axis produces identical cache identities
// (the submitting tenant is excluded from them); the job manager dedups
// them (TestCampaignTenantDedup).
func TestExpandDupKeys(t *testing.T) {
	spec := campaignSpec{
		Template: template(100),
		Axes:     []axis{{Name: "tenant", Values: vals("1", "2", "4")}},
	}
	cells, err := expand(spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells", len(cells))
	}
	i0, i1, i2 := cells[0].Spec.Canonical(), cells[1].Spec.Canonical(), cells[2].Spec.Canonical()
	if !bytes.Equal(i0, i1) || !bytes.Equal(i1, i2) {
		t.Fatalf("identities differ:\n%s\n%s\n%s", i0, i1, i2)
	}
}

// TestExpandErrors walks the rejection paths: every bad spec fails at
// expansion, before anything could be enqueued.
func TestExpandErrors(t *testing.T) {
	cases := []struct {
		name string
		spec campaignSpec
		max  int
		want string
	}{
		{"unnamed axis", campaignSpec{Template: template(100), Axes: []axis{{Values: vals("1")}}}, 4096, "has no name"},
		{"duplicate axis", campaignSpec{Template: template(100), Axes: []axis{
			{Name: "params.seed", Values: vals("1")},
			{Name: "params.seed", Values: vals("2")},
		}}, 4096, "duplicate axis"},
		{"no values", campaignSpec{Template: template(100), Axes: []axis{{Name: "params.seed"}}}, 4096, "has no values"},
		{"values and range", campaignSpec{Template: template(100), Axes: []axis{
			{Name: "params.seed", Values: vals("1"), Range: &axisRange{From: 1, To: 2}},
		}}, 4096, "both values and range"},
		{"empty range", campaignSpec{Template: template(100), Axes: []axis{
			{Name: "params.seed", Range: &axisRange{From: 5, To: 1}},
		}}, 4096, "empty range"},
		{"unknown field", campaignSpec{Template: template(100), Axes: []axis{
			{Name: "params.sed", Values: vals("1")},
		}}, 4096, "unknown field"},
		{"non-object segment", campaignSpec{Template: template(100), Axes: []axis{
			{Name: "profile.x", Values: vals("1")},
		}}, 4096, "is not an object"},
		{"wrong type", campaignSpec{Template: template(100), Axes: []axis{
			{Name: "profile", Values: vals("3")},
		}}, 4096, "cannot unmarshal"},
		{"invalid option", campaignSpec{Template: template(100), Axes: []axis{
			{Name: "options.scheduler", Values: vals(`"bogus"`)},
		}}, 4096, "unknown scheduler"},
		{"guard exceeded", campaignSpec{Template: template(100), Axes: []axis{
			{Name: "params.seed", Range: &axisRange{From: 1, To: 100}},
		}}, 10, "exceeds 10 cells"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := expand(tc.spec, tc.max)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestResolveTableAxes pins the table parameter defaulting shared by
// the HTTP endpoint and cmd/repro.
func TestResolveTableAxes(t *testing.T) {
	axes := []string{"params.seed", "options.scheduler"}
	rows, cols, metric, err := resolveTableAxes(axes, "", "", "")
	if err != nil || rows != "params.seed" || cols != "options.scheduler" || metric != "write_mbps" {
		t.Fatalf("defaults: %q %q %q %v", rows, cols, metric, err)
	}
	// rows pinned to the second axis: cols defaults to the other one.
	rows, cols, _, err = resolveTableAxes(axes, "options.scheduler", "", "")
	if err != nil || rows != "options.scheduler" || cols != "params.seed" {
		t.Fatalf("pinned rows: %q %q %v", rows, cols, err)
	}
	if _, _, _, err := resolveTableAxes([]string{"one"}, "", "", ""); err == nil {
		t.Fatal("one-axis campaign should need explicit rows/cols")
	}
}

// TestExpandFaultAxis pins that fault-plan fields are sweepable: the
// axis path creates the intermediate fault objects even when the
// template carries no plan at all, and distinct rates are distinct
// cache identities.
func TestExpandFaultAxis(t *testing.T) {
	spec := campaignSpec{
		Template: template(100),
		Axes: []axis{
			{Name: "fault.transient.rate", Values: vals("0.0", "0.01", "0.05")},
		},
	}
	cells, err := expand(spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}
	wantRate := []float64{0, 0.01, 0.05}
	keys := map[string]bool{}
	for i, c := range cells {
		if c.Spec.Fault == nil || c.Spec.Fault.Transient == nil {
			t.Fatalf("cell %d: axis did not create the fault plan: %+v", i, c.Spec)
		}
		if c.Spec.Fault.Transient.Rate != wantRate[i] {
			t.Errorf("cell %d: rate %v, want %v", i, c.Spec.Fault.Transient.Rate, wantRate[i])
		}
		keys[string(c.Spec.Canonical())] = true
	}
	if len(keys) != 3 {
		t.Errorf("fault rates collapsed to %d cache identities, want 3", len(keys))
	}
	// Out-of-range substituted values still reject the whole campaign.
	spec.Axes[0].Values = vals("2.0")
	if _, err := expand(spec, 4096); err == nil {
		t.Error("out-of-range fault rate accepted")
	}
}

// TestExpandTenantWeightAxis pins that numeric path segments index into
// the template's tenants array, so per-tenant fair-share weights are
// sweepable campaign axes — the interference experiment's grid shape.
func TestExpandTenantWeightAxis(t *testing.T) {
	tmpl := template(100)
	tmpl.Tenants = []TenantSpec{
		{Tenant: 1, Weight: 1},
		{Tenant: 2, Weight: 1},
	}
	spec := campaignSpec{
		Template: tmpl,
		Axes: []axis{
			{Name: "tenants.1.weight", Values: vals("1", "4", "16")},
		},
	}
	cells, err := expand(spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}
	wantW := []float64{1, 4, 16}
	keys := map[string]bool{}
	for i, c := range cells {
		if len(c.Spec.Tenants) != 2 || c.Spec.Tenants[0].Weight != 1 {
			t.Fatalf("cell %d: tenants mangled: %+v", i, c.Spec.Tenants)
		}
		if c.Spec.Tenants[1].Weight != wantW[i] {
			t.Errorf("cell %d: weight %v, want %v", i, c.Spec.Tenants[1].Weight, wantW[i])
		}
		keys[string(c.Spec.Canonical())] = true
	}
	if len(keys) != 3 {
		t.Errorf("tenant weights collapsed to %d cache identities, want 3", len(keys))
	}
	// Arrays are never grown: an index past the template's elements
	// rejects the campaign rather than silently extending it.
	spec.Axes[0].Name = "tenants.2.weight"
	if _, err := expand(spec, 4096); err == nil {
		t.Error("out-of-range tenant index accepted")
	}
	// Non-integer segments against an array are rejected too.
	spec.Axes[0].Name = "tenants.first.weight"
	if _, err := expand(spec, 4096); err == nil {
		t.Error("non-integer array segment accepted")
	}
}
