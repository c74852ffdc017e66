package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ossd/internal/sim"
)

func TestKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" || Free.String() != "F" || Kind(9).String() != "?" {
		t.Fatal("kind strings wrong")
	}
}

func TestOpValidate(t *testing.T) {
	good := Op{At: 5, Kind: Write, Offset: 0, Size: 4096}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Op{
		{Kind: Write, Offset: -1, Size: 10},
		{Kind: Write, Offset: 0, Size: 0},
		{At: -1, Kind: Write, Offset: 0, Size: 1},
		{Kind: Kind(9), Offset: 0, Size: 1},
		{Kind: Write, Offset: 6917529027641081856, Size: 6917529027641081856}, // End overflows
	}
	for i, o := range bad {
		if o.Validate() == nil {
			t.Errorf("case %d: accepted %+v", i, o)
		}
	}
}

func TestSummarize(t *testing.T) {
	ops := []Op{
		{At: 10, Kind: Read, Offset: 0, Size: 100},
		{At: 20, Kind: Write, Offset: 100, Size: 200, Priority: true},
		{At: 5, Kind: Free, Offset: 1000, Size: 50},
	}
	s := Summarize(ops)
	if s.Ops != 3 || s.Reads != 1 || s.Writes != 1 || s.Frees != 1 {
		t.Fatalf("counts: %+v", s)
	}
	if s.ReadBytes != 100 || s.WriteBytes != 200 || s.FreedBytes != 50 {
		t.Fatalf("bytes: %+v", s)
	}
	if s.Duration != 20 || s.MaxOffset != 1050 || s.PriorityOps != 1 {
		t.Fatalf("derived: %+v", s)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ops := []Op{
		{At: 0, Kind: Write, Offset: 4096, Size: 8192},
		{At: 1500, Kind: Read, Offset: 0, Size: 512, Priority: true},
		{At: 2000, Kind: Free, Offset: 12288, Size: 4096},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, ops); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, got) {
		t.Fatalf("round trip mismatch:\n%v\n%v", ops, got)
	}
}

func TestDecodeCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n100 W 0 4096\n"
	got, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Kind != Write {
		t.Fatalf("got %v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"1 W 0",           // too few fields
		"1 W 0 1 P extra", // too many
		"x W 0 4096",      // bad time
		"1 Q 0 4096",      // bad kind
		"1 W y 4096",      // bad offset
		"1 W 0 z",         // bad size
		"1 W 0 4096 X",    // bad flag
		"1 W 0 0",         // zero size fails validation
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c)); err == nil {
			t.Errorf("decoded invalid line %q", c)
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, []Op{{Kind: Write, Offset: 0, Size: 0}}); err == nil {
		t.Fatal("encoded invalid op")
	}
}

// Property: encode/decode is the identity on valid ops.
func TestCodecProperty(t *testing.T) {
	prop := func(raw []struct {
		At   uint32
		Kind uint8
		Off  uint16
		Sz   uint16
		Pri  bool
	}) bool {
		var ops []Op
		for _, r := range raw {
			ops = append(ops, Op{
				At:       sim.Time(r.At),
				Kind:     Kind(r.Kind % 3),
				Offset:   int64(r.Off),
				Size:     int64(r.Sz) + 1,
				Priority: r.Pri,
			})
		}
		var buf bytes.Buffer
		if err := Encode(&buf, ops); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if len(ops) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(ops, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// ---- Aligner tests ----

const stripe = 32 * 1024

func alignOps(t *testing.T, ops []Op) []Op {
	t.Helper()
	out, err := Align(ops, stripe)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAlignSingleAlignedWrite(t *testing.T) {
	in := []Op{{At: 1, Kind: Write, Offset: 0, Size: stripe}}
	out := alignOps(t, in)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("aligned write modified: %v", out)
	}
}

func TestAlignMergesSequentialRun(t *testing.T) {
	// Eight contiguous 4 KB writes covering exactly one stripe must merge
	// into one aligned stripe write.
	var in []Op
	for i := int64(0); i < 8; i++ {
		in = append(in, Op{At: sim.Time(i), Kind: Write, Offset: i * 4096, Size: 4096})
	}
	out := alignOps(t, in)
	if len(out) != 1 {
		t.Fatalf("got %d ops, want 1: %v", len(out), out)
	}
	if out[0].Offset != 0 || out[0].Size != stripe {
		t.Fatalf("merged op = %+v", out[0])
	}
	if out[0].At != 7 {
		t.Fatalf("merged op time = %v, want last-contributor 7", out[0].At)
	}
}

func TestAlignSplitsMisalignedRun(t *testing.T) {
	// A 64 KB run starting 4 KB into a stripe: head partial, one full
	// stripe, tail partial.
	in := []Op{{At: 9, Kind: Write, Offset: 4096, Size: 2 * stripe}}
	out := alignOps(t, in)
	if len(out) != 3 {
		t.Fatalf("got %d ops: %v", len(out), out)
	}
	if out[0].Offset != 4096 || out[0].Size != stripe-4096 {
		t.Fatalf("head = %+v", out[0])
	}
	if out[1].Offset != stripe || out[1].Size != stripe {
		t.Fatalf("body = %+v", out[1])
	}
	if out[2].Offset != 2*stripe || out[2].Size != 4096 {
		t.Fatalf("tail = %+v", out[2])
	}
}

func TestAlignRandomWritesPassThrough(t *testing.T) {
	// Discontiguous small writes cannot merge; each flushes the previous.
	in := []Op{
		{At: 1, Kind: Write, Offset: 0, Size: 4096},
		{At: 2, Kind: Write, Offset: 10 * stripe, Size: 4096},
		{At: 3, Kind: Write, Offset: 5 * stripe, Size: 4096},
	}
	out := alignOps(t, in)
	if len(out) != 3 {
		t.Fatalf("got %d ops: %v", len(out), out)
	}
	for i := range in {
		if out[i].Offset != in[i].Offset || out[i].Size != in[i].Size {
			t.Fatalf("op %d changed: %+v", i, out[i])
		}
	}
}

func TestAlignReadFlushesOverlap(t *testing.T) {
	in := []Op{
		{At: 1, Kind: Write, Offset: 0, Size: 4096},
		{At: 2, Kind: Read, Offset: 0, Size: 4096},
	}
	out := alignOps(t, in)
	if len(out) != 2 || out[0].Kind != Write || out[1].Kind != Read {
		t.Fatalf("read ordering broken: %v", out)
	}
}

func TestAlignReadNoOverlapDoesNotFlush(t *testing.T) {
	in := []Op{
		{At: 1, Kind: Write, Offset: 0, Size: 4096},
		{At: 2, Kind: Read, Offset: 10 * stripe, Size: 4096},
		{At: 3, Kind: Write, Offset: 4096, Size: 4096},
	}
	out := alignOps(t, in)
	// Read passes first; the two writes merge into one op at Finish.
	if len(out) != 2 {
		t.Fatalf("got %d ops: %v", len(out), out)
	}
	if out[0].Kind != Read {
		t.Fatalf("first op = %+v, want the read", out[0])
	}
	if out[1].Kind != Write || out[1].Size != 8192 {
		t.Fatalf("merged write = %+v", out[1])
	}
}

func TestAlignOverlappingRewrite(t *testing.T) {
	in := []Op{
		{At: 1, Kind: Write, Offset: 0, Size: 8192},
		{At: 2, Kind: Write, Offset: 4096, Size: 8192}, // overlaps buffered
	}
	out := alignOps(t, in)
	if len(out) != 2 {
		t.Fatalf("got %d ops: %v", len(out), out)
	}
	// Both issued in order; no merging of overlapping data.
	if out[0].Offset != 0 || out[0].Size != 8192 || out[1].Offset != 4096 {
		t.Fatalf("rewrite handling: %v", out)
	}
}

func TestAlignPriorityBoundary(t *testing.T) {
	// A priority write must not merge into a non-priority run.
	in := []Op{
		{At: 1, Kind: Write, Offset: 0, Size: 4096},
		{At: 2, Kind: Write, Offset: 4096, Size: 4096, Priority: true},
	}
	out := alignOps(t, in)
	if len(out) != 2 {
		t.Fatalf("priority write merged: %v", out)
	}
	if out[0].Priority || !out[1].Priority {
		t.Fatalf("priority flags lost: %v", out)
	}
}

func TestAlignRejectsBadStripe(t *testing.T) {
	if _, err := Align(nil, 0); err == nil {
		t.Fatal("accepted zero stripe")
	}
}

// Property: alignment preserves the exact set of written bytes (same
// coverage, in order within overlapping regions), never emits a write
// crossing a stripe boundary, and leaves reads/frees untouched.
func TestAlignCoverageProperty(t *testing.T) {
	const space = 16 * 4096
	prop := func(raw []struct {
		Off  uint16
		Sz   uint8
		Kind uint8
	}) bool {
		var in []Op
		at := sim.Time(0)
		for _, r := range raw {
			at++
			in = append(in, Op{
				At:     at,
				Kind:   Kind(r.Kind % 3),
				Offset: (int64(r.Off) % space) / 512 * 512,
				Size:   (int64(r.Sz)%16 + 1) * 512,
			})
		}
		const st = 8192
		out, err := Align(in, st)
		if err != nil {
			return false
		}
		// Merging and splitting must conserve the written byte ranges: the
		// set of covered 512-byte sectors is identical and the total
		// volume of write traffic is unchanged (merging only coalesces
		// contiguous, non-overlapping runs).
		coverage := func(ops []Op) (map[int64]bool, int64) {
			cov := make(map[int64]bool)
			var bytes int64
			for _, o := range ops {
				if o.Kind != Write {
					continue
				}
				bytes += o.Size
				for b := o.Offset; b < o.End(); b += 512 {
					cov[b] = true
				}
			}
			return cov, bytes
		}
		inCov, inBytes := coverage(in)
		outCov, outBytes := coverage(out)
		if inBytes != outBytes || len(inCov) != len(outCov) {
			return false
		}
		for k := range inCov {
			if !outCov[k] {
				return false
			}
		}
		// No emitted write may cross a stripe boundary.
		for _, o := range out {
			if o.Kind == Write && o.Offset/st != (o.End()-1)/st {
				return false
			}
		}
		// Reads and frees survive unchanged and in order.
		var inRF, outRF []Op
		for _, o := range in {
			if o.Kind != Write {
				inRF = append(inRF, o)
			}
		}
		for _, o := range out {
			if o.Kind != Write {
				outRF = append(outRF, o)
			}
		}
		return reflect.DeepEqual(inRF, outRF)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Fatal(err)
	}
}
