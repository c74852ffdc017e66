package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	if m.Mean() != 0 || m.N() != 0 || m.Min() != 0 || m.Max() != 0 {
		t.Fatal("zero Mean not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.N() != 8 {
		t.Fatalf("N = %d, want 8", m.N())
	}
	if got := m.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", m.Min(), m.Max())
	}
}

func TestMeanSingleSample(t *testing.T) {
	var m Mean
	m.Add(3.5)
	if m.Mean() != 3.5 || m.N() != 1 || m.Min() != 3.5 || m.Max() != 3.5 {
		t.Fatalf("single-sample stats wrong: %+v", m)
	}
}

// Property: streaming mean matches the direct sum for arbitrary inputs.
func TestMeanMatchesDirect(t *testing.T) {
	prop := func(xs []float64) bool {
		var m Mean
		var sum float64
		ok := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			m.Add(x)
			sum += x
			ok++
		}
		if ok == 0 {
			return m.N() == 0
		}
		direct := sum / float64(ok)
		return math.Abs(m.Mean()-direct) < 1e-6*(1+math.Abs(direct))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	med := h.Percentile(50)
	if med < 450 || med > 560 {
		t.Fatalf("median = %v, want ~500 (within bucket error)", med)
	}
	p99 := h.Percentile(99)
	if p99 < 900 || p99 > 1000 {
		t.Fatalf("p99 = %v, want ~990", p99)
	}
	if h.Percentile(0) != 1 {
		t.Fatalf("p0 = %v, want min 1", h.Percentile(0))
	}
	if h.Percentile(100) != 1000 {
		t.Fatalf("p100 = %v, want max 1000", h.Percentile(100))
	}
}

func TestHistogramEmptyAndClamp(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 {
		t.Fatal("empty histogram percentile not 0")
	}
	h.Add(0.5)  // below bucket 0 resolution
	h.Add(1e40) // above bucket range: clamps, must not panic
	if h.N() != 2 {
		t.Fatalf("N = %d", h.N())
	}
	if p := h.Percentile(100); p != 1e40 {
		t.Fatalf("max clamp = %v", p)
	}
}

// Property: percentile estimates stay within the sample min/max and are
// monotone in p.
func TestHistogramMonotoneProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		var h Histogram
		for _, r := range raw {
			h.Add(float64(r%1000000) + 1)
		}
		if h.N() == 0 {
			return true
		}
		prev := 0.0
		for p := 0.0; p <= 100; p += 5 {
			v := h.Percentile(p)
			if v < h.acc.Min() || v > h.acc.Max() || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// refBucket is the histogram's bucket formula as it was defined before
// bucketFor went table-driven, kept here as the reference it must match.
func refBucket(x float64) int {
	if x < 1 {
		return 0
	}
	b := int(math.Log2(x) * 8)
	if b < 0 {
		b = 0
	}
	if b > 511 {
		b = 511
	}
	return b
}

// TestBucketForExact pins the table-driven bucketFor to the logarithm
// formula: around every bucket threshold, on log-uniform random inputs,
// and on the special values.
func TestBucketForExact(t *testing.T) {
	check := func(x float64) {
		if got, want := bucketFor(x), refBucket(x); got != want {
			t.Fatalf("bucketFor(%v [%#x]) = %d, want %d", x, math.Float64bits(x), got, want)
		}
	}
	for b, low := range bucketLow {
		if b > 0 && (refBucket(low) != b || refBucket(math.Nextafter(low, 0)) != b-1) {
			t.Fatalf("threshold %d at %v is not where the formula steps from %d to %d", b, low, b-1, b)
		}
		bits := math.Float64bits(low)
		for d := uint64(0); d <= 200; d++ {
			check(math.Float64frombits(bits + d))
			check(math.Float64frombits(bits - d))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000_000; i++ {
		// Exponents from 2^-8 to 2^72 cover the clamp at either end.
		check(math.Exp2(rng.Float64()*80 - 8))
	}
	for _, x := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1, -1e300,
		math.SmallestNonzeroFloat64, 0x1p-1022, 1, math.Nextafter(1, 2), math.Nextafter(1, 0),
		0x1p63, math.Nextafter(0x1p63, 0), 0x1p64, math.MaxFloat64,
	} {
		check(x)
	}
}

func TestBandwidth(t *testing.T) {
	if bw := Bandwidth(100e6, 2); bw != 50 {
		t.Fatalf("Bandwidth = %v, want 50", bw)
	}
	if bw := Bandwidth(100, 0); bw != 0 {
		t.Fatalf("zero-duration bandwidth = %v, want 0", bw)
	}
}

func TestRatio(t *testing.T) {
	if r := Ratio(10, 2); r != 5 {
		t.Fatalf("Ratio = %v", r)
	}
	if r := Ratio(10, 0); !math.IsInf(r, 1) {
		t.Fatalf("Ratio with zero denominator = %v, want +Inf", r)
	}
	if r := Ratio(0, 0); r != 0 {
		t.Fatalf("Ratio(0,0) = %v, want 0", r)
	}
}

func TestImprovement(t *testing.T) {
	if imp := Improvement(10, 9); math.Abs(imp-10) > 1e-12 {
		t.Fatalf("Improvement = %v, want 10", imp)
	}
	if imp := Improvement(0, 5); imp != 0 {
		t.Fatalf("Improvement from zero = %v, want 0", imp)
	}
	if imp := Improvement(10, 12); imp != -20 {
		t.Fatalf("regression = %v, want -20", imp)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "Device", "Seq", "Rand", "Ratio")
	tb.AddRow("HDD", 86.2, 0.6, 143.7)
	tb.AddRow("S1slc", 205.6, 18.7, 11.0)
	tb.AddNote("bandwidths in MB/s")
	s := tb.String()
	if !strings.Contains(s, "Table X") {
		t.Fatal("missing title")
	}
	if !strings.Contains(s, "HDD") || !strings.Contains(s, "205.6") {
		t.Fatalf("missing cells:\n%s", s)
	}
	if !strings.Contains(s, "note: bandwidths") {
		t.Fatal("missing note")
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, 2 rows, note
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	for _, l := range lines {
		if strings.HasSuffix(l, " ") {
			t.Fatalf("trailing space in %q", l)
		}
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(0.001234)
	tb.AddRow(3.14159)
	tb.AddRow(42.71828)
	tb.AddRow(12345.6)
	tb.AddRow(math.Inf(1))
	s := tb.String()
	for _, want := range []string{"0.0012", "3.14", "42.7", "12346", "inf"} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted table missing %q:\n%s", want, s)
		}
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "bw"
	s.Add(1, 10)
	s.Add(2, 20)
	out := s.String()
	if !strings.Contains(out, "# bw") || !strings.Contains(out, "20.0000") {
		t.Fatalf("series render:\n%s", out)
	}
	if len(s.X) != 2 || s.Y[1] != 20 {
		t.Fatal("series points wrong")
	}
}

func TestSummarize(t *testing.T) {
	min, med, max := Summarize([]float64{5, 1, 9, 3, 7})
	if min != 1 || med != 5 || max != 9 {
		t.Fatalf("Summarize = %v %v %v", min, med, max)
	}
	if a, b, c := Summarize(nil); a != 0 || b != 0 || c != 0 {
		t.Fatal("empty Summarize not zero")
	}
	// Must not mutate input.
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestGrid(t *testing.T) {
	g := NewGrid("t", "dev \\ wl")
	g.Add("ssd", "seq", 10)
	g.Add("ssd", "rand", 2)
	g.Add("hdd", "seq", 8)
	// Duplicate samples average.
	g.Add("hdd", "seq", 4)
	if g.MaxN() != 2 {
		t.Fatalf("MaxN = %d", g.MaxN())
	}
	g.AddNote("a note")
	out := g.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	// Rows and columns keep first-insertion order.
	seqAt, randAt := strings.Index(lines[1], "seq"), strings.Index(lines[1], "rand")
	if !strings.HasPrefix(lines[1], "dev \\ wl") || seqAt < 0 || randAt < seqAt {
		t.Fatalf("header: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "ssd") || !strings.HasPrefix(lines[3], "hdd") {
		t.Fatalf("row order:\n%s", out)
	}
	// hdd/rand was never set: rendered as "-". hdd/seq averaged to 6.
	if !strings.Contains(lines[3], "6.00") || !strings.Contains(lines[3], "-") {
		t.Fatalf("hdd row: %q", lines[3])
	}
	if !strings.Contains(lines[4], "a note") {
		t.Fatalf("note: %q", lines[4])
	}
}
