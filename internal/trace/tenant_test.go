package trace

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ossd/internal/sim"
)

// TestCodecTenantRoundTrip: v2 flags (P, T<n>) round-trip in every
// combination, and tenant-0 ops encode byte-identically to the v1
// format — the compatibility contract that keeps old goldens valid.
func TestCodecTenantRoundTrip(t *testing.T) {
	ops := []Op{
		{At: 0, Kind: Write, Offset: 0, Size: 4096},
		{At: 10, Kind: Read, Offset: 4096, Size: 4096, Tenant: 1},
		{At: 20, Kind: Write, Offset: 8192, Size: 4096, Tenant: 255, Priority: true},
		{At: 30, Kind: Free, Offset: 0, Size: 4096, Tenant: 7},
		{At: 40, Kind: Read, Offset: 0, Size: 512, Priority: true},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, ops); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ops) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, ops)
	}

	// Tenant-0, non-priority ops emit no flags: the encoding is the v1
	// line format byte for byte.
	buf.Reset()
	if err := Encode(&buf, []Op{{At: 5, Kind: Write, Offset: 0, Size: 4096}}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "5 W 0 4096\n" {
		t.Fatalf("tenant-0 encoding %q is not v1", buf.String())
	}
}

// TestDecodeTenantFlagErrors: malformed tenant flags fail loudly.
func TestDecodeTenantFlagErrors(t *testing.T) {
	for _, line := range []string{
		"0 W 0 4096 T0",     // tenant 0 may not be tagged explicitly
		"0 W 0 4096 Tx",     // non-numeric
		"0 W 0 4096 T256",   // out of uint8 range
		"0 W 0 4096 T1 T2",  // duplicate flag
		"0 W 0 4096 T1 P Q", // too many fields
	} {
		if _, err := Decode(strings.NewReader(line)); err == nil {
			t.Errorf("line %q decoded without error", line)
		}
	}
}

// TestMergeTenantsDeterministic: the merged mix is a pure function of
// its sources — same generators, same tags, same interleave, every run
// — and its timestamps are monotone even under bursty warps.
func TestMergeTenantsDeterministic(t *testing.T) {
	build := func() []TenantStream {
		mk := func(seed int64) Stream {
			rng := rand.New(rand.NewSource(seed))
			i := 0
			var at sim.Time
			return Func(func() (Op, bool) {
				if i >= 200 {
					return Op{}, false
				}
				i++
				at += sim.Time(rng.Intn(50_000))
				return Op{At: at, Kind: Write, Offset: int64(rng.Intn(1<<20)) * 4096, Size: 4096}, true
			})
		}
		return []TenantStream{
			{Tenant: 1, Stream: mk(1)},
			{Tenant: 2, Stream: mk(2), Mod: Modulation{Kind: "bursty", Rate: 2, Period: 5 * sim.Millisecond, Duty: 0.5}},
			{Tenant: 9, Stream: mk(3), Mod: Modulation{Kind: "diurnal", Period: 20 * sim.Millisecond, Phase: 0.5}},
		}
	}
	drain := func() []Op {
		s, err := MergeTenants(build())
		if err != nil {
			t.Fatal(err)
		}
		ops := Collect(s)
		if err := Err(s); err != nil {
			t.Fatal(err)
		}
		return ops
	}
	a, b := drain(), drain()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("merged tenant mix differs between identical runs")
	}
	if len(a) != 600 {
		t.Fatalf("merged %d ops, want 600", len(a))
	}
	seen := map[uint8]int{}
	for i, op := range a {
		seen[op.Tenant]++
		if i > 0 && op.At < a[i-1].At {
			t.Fatalf("op %d: timestamp %d before predecessor %d", i, op.At, a[i-1].At)
		}
	}
	if seen[1] != 200 || seen[2] != 200 || seen[9] != 200 {
		t.Fatalf("tenant op counts: %v", seen)
	}

	// Tenant 0 sources are rejected: the untagged default cannot join a
	// mix, or its ops would be indistinguishable from legacy traffic.
	if _, err := MergeTenants([]TenantStream{{Tenant: 0, Stream: FromSlice(nil)}}); err == nil {
		t.Fatal("tenant 0 source accepted")
	}
}

// TestModulationWarpMonotone: the arrival warp preserves source order
// for every profile, so a sorted stream stays sorted after shaping.
func TestModulationWarpMonotone(t *testing.T) {
	mods := []Modulation{
		{},
		{Kind: "steady", Rate: 3},
		{Kind: "bursty", Rate: 0.5, Period: sim.Millisecond, Duty: 0.125},
		{Kind: "bursty", Duty: 0.9, Floor: 0.2},
		{Kind: "diurnal", Period: 10 * sim.Millisecond, Floor: 0.05, Phase: 0.25},
	}
	rng := rand.New(rand.NewSource(42))
	times := make([]sim.Time, 500)
	var at sim.Time
	for i := range times {
		at += sim.Time(rng.Intn(2_000_000))
		times[i] = at
	}
	for _, m := range mods {
		if err := m.Validate(); err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		w := newWarp(m)
		warped := make([]sim.Time, len(times))
		for i, ts := range times {
			warped[i] = w.apply(ts)
		}
		if !sort.SliceIsSorted(warped, func(i, j int) bool { return warped[i] < warped[j] }) {
			t.Errorf("%+v: warp broke monotonicity", m)
		}
	}
	// The zero modulation is the identity: legacy timing passes through.
	w := newWarp(Modulation{})
	for _, ts := range times[:10] {
		if w.apply(ts) != ts {
			t.Fatalf("zero modulation warped %d to %d", ts, w.apply(ts))
		}
	}
}

// TestDecodeCSVGolden replays the checked-in MSR-Cambridge sample and
// pins the exact decoded trace: timestamps rebased to 0 in 100 ns
// ticks and clamped monotone, hostnames mapped to tenants in
// first-seen order, types parsed case-insensitively, header skipped.
func TestDecodeCSVGolden(t *testing.T) {
	f, err := os.Open("testdata/msr_sample.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src := DecodeCSV(f, MSRLayout())
	ops := Collect(src)
	if err := Err(src); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, ops); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"0 R 7014609920 24576 T1\n" +
		"1332052600 W 7014609920 8192 T1\n" +
		"2332052600 R 1048576 4096 T2\n" +
		"2332052600 W 2097152 4096 T1\n"
	if buf.String() != want {
		t.Fatalf("decoded trace:\n%swant:\n%s", buf.String(), want)
	}
}

// TestDecodeCSVErrors: malformed rows fail with the line number; only
// the first row may be a header.
func TestDecodeCSVErrors(t *testing.T) {
	for _, src := range []string{
		"1000,h,0,Read,0\n",              // too few columns
		"1000,h,0,Trim,0,4096,1\n",       // unknown type
		"1000,h,0,Read,x,4096,1\n",       // bad offset
		"1000,h,0,Read,0,4096,1\nnope\n", // non-header bad row later
		"1000,h,0,Read,0,-4096,1\n",      // invalid op (negative size)
	} {
		st := DecodeCSV(strings.NewReader(src), MSRLayout())
		Collect(st)
		if Err(st) == nil {
			t.Errorf("source %q decoded without error", src)
		}
	}
}

// TestDecodeCSVTimestampOverflow pins that a row whose offset from the
// first row overflows int64 nanoseconds fails with its line number. Both
// rows used to wrap silently: the first to 0 ns, the second to 100 ns.
func TestDecodeCSVTimestampOverflow(t *testing.T) {
	for _, tick := range []string{"100000000000000000", "-9223372036854775807"} {
		src := "0,h,0,Read,0,4096,1\n" + tick + ",h,0,Read,0,4096,1\n"
		st := DecodeCSV(strings.NewReader(src), MSRLayout())
		if got := Collect(st); len(got) != 1 {
			t.Errorf("tick %s: decoded %d ops, want only the first row", tick, len(got))
		}
		if err := Err(st); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("tick %s: error %v, want one naming line 2", tick, err)
		}
	}
}
