package trace

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ossd/internal/sim"
)

func sampleOps() []Op {
	return []Op{
		{At: 0, Kind: Write, Offset: 0, Size: 4096},
		{At: 10, Kind: Read, Offset: 4096, Size: 4096, Priority: true},
		{At: 20, Kind: Free, Offset: 0, Size: 4096},
		{At: 30, Kind: Write, Offset: 8192, Size: 8192},
	}
}

func TestFromSliceCollectRoundTrip(t *testing.T) {
	ops := sampleOps()
	got := Collect(FromSlice(ops))
	if !reflect.DeepEqual(ops, got) {
		t.Fatalf("round trip mismatch:\n%v\n%v", ops, got)
	}
	// Exhausted streams keep reporting false.
	s := FromSlice(ops)
	Collect(s)
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream yielded an op")
	}
	if got := Collect(FromSlice(nil)); len(got) != 0 {
		t.Fatalf("empty stream collected %v", got)
	}
}

func TestFuncStream(t *testing.T) {
	i := 0
	s := Func(func() (Op, bool) {
		if i >= 3 {
			return Op{}, false
		}
		i++
		return Op{Kind: Write, Offset: int64(i) * 4096, Size: 4096}, true
	})
	if got := Collect(s); len(got) != 3 || got[2].Offset != 3*4096 {
		t.Fatalf("func stream: %v", got)
	}
}

func TestLimit(t *testing.T) {
	ops := sampleOps()
	if got := Collect(Limit(FromSlice(ops), 2)); !reflect.DeepEqual(got, ops[:2]) {
		t.Fatalf("limit 2: %v", got)
	}
	if got := Collect(Limit(FromSlice(ops), 0)); len(got) != 0 {
		t.Fatalf("limit 0: %v", got)
	}
	// Limit beyond length is the identity.
	if got := Collect(Limit(FromSlice(ops), 100)); !reflect.DeepEqual(got, ops) {
		t.Fatalf("limit 100: %v", got)
	}
}

func TestShift(t *testing.T) {
	got := Collect(Shift(FromSlice(sampleOps()), 5*sim.Millisecond))
	for i, o := range got {
		if want := sampleOps()[i].At + 5*sim.Millisecond; o.At != want {
			t.Fatalf("op %d at %v, want %v", i, o.At, want)
		}
	}
}

func TestMergeOrdersByTimestamp(t *testing.T) {
	a := []Op{
		{At: 0, Kind: Write, Offset: 0, Size: 512},
		{At: 20, Kind: Write, Offset: 512, Size: 512},
	}
	b := []Op{
		{At: 10, Kind: Read, Offset: 0, Size: 512},
		{At: 30, Kind: Read, Offset: 512, Size: 512},
	}
	got := Collect(Merge(FromSlice(a), FromSlice(b)))
	var ats []sim.Time
	for _, o := range got {
		ats = append(ats, o.At)
	}
	if !reflect.DeepEqual(ats, []sim.Time{0, 10, 20, 30}) {
		t.Fatalf("merge order: %v", ats)
	}
}

func TestMergeTieBreaksByArgumentOrder(t *testing.T) {
	a := []Op{{At: 5, Kind: Write, Offset: 0, Size: 512}}
	b := []Op{{At: 5, Kind: Read, Offset: 0, Size: 512}}
	got := Collect(Merge(FromSlice(a), FromSlice(b)))
	if len(got) != 2 || got[0].Kind != Write || got[1].Kind != Read {
		t.Fatalf("tie break: %v", got)
	}
	// Empty and single-source merges degenerate cleanly.
	if got := Collect(Merge()); len(got) != 0 {
		t.Fatalf("empty merge: %v", got)
	}
	if got := Collect(Merge(FromSlice(a))); len(got) != 1 {
		t.Fatalf("single merge: %v", got)
	}
}

func TestTallyMatchesSummarize(t *testing.T) {
	ops := sampleOps()
	var st Stats
	got := Collect(Tally(FromSlice(ops), &st))
	if !reflect.DeepEqual(ops, got) {
		t.Fatal("tally altered the stream")
	}
	if want := Summarize(ops); !reflect.DeepEqual(st, want) {
		t.Fatalf("tally stats %+v, want %+v", st, want)
	}
}

func TestErrPropagation(t *testing.T) {
	// A plain stream has no error.
	if err := Err(FromSlice(sampleOps())); err != nil {
		t.Fatal(err)
	}
	// A decoder error surfaces through wrapping combinators.
	d := NewDecoder(strings.NewReader("1 W 0 4096\nbogus line\n"))
	s := Limit(Shift(d, 5), 10)
	got := Collect(s)
	if len(got) != 1 {
		t.Fatalf("collected %d ops before error", len(got))
	}
	if Err(s) == nil {
		t.Fatal("decoder error lost through combinators")
	}
}

func TestDecoderStreamRoundTrip(t *testing.T) {
	ops := sampleOps()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	n, err := enc.Copy(FromSlice(ops))
	if err == nil {
		err = enc.Flush()
	}
	if err != nil || n != len(ops) {
		t.Fatalf("copy: n=%d err=%v", n, err)
	}
	d := NewDecoder(&buf)
	got := Collect(d)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, got) {
		t.Fatalf("stream codec round trip:\n%v\n%v", ops, got)
	}
}

// The codec must round-trip every op kind and flag — including Free and
// Priority, which the experiments depend on (§3.5, §3.6).
func TestCodecRoundTripFreeAndPriority(t *testing.T) {
	ops := []Op{
		{At: 100, Kind: Free, Offset: 1 << 20, Size: 64 << 10},
		{At: 200, Kind: Write, Offset: 0, Size: 4096, Priority: true},
		{At: 300, Kind: Read, Offset: 4096, Size: 4096, Priority: true},
		{At: 400, Kind: Free, Offset: 2 << 20, Size: 4096},
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Comment("header survives"); err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		if err := enc.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, got) {
		t.Fatalf("free/priority round trip:\n%v\n%v", ops, got)
	}
}

func TestCopyReportsStreamError(t *testing.T) {
	d := NewDecoder(strings.NewReader("1 W 0 4096\nnot an op\n"))
	var buf bytes.Buffer
	if _, err := NewEncoder(&buf).Copy(d); err == nil {
		t.Fatal("copy swallowed decoder error")
	}
}

func TestCopyRejectsInvalidOp(t *testing.T) {
	var buf bytes.Buffer
	bad := FromSlice([]Op{{Kind: Write, Offset: 0, Size: 0}})
	if _, err := NewEncoder(&buf).Copy(bad); err == nil {
		t.Fatal("encoded invalid op")
	}
}

func TestAlignStreamMatchesAlignWith(t *testing.T) {
	// Streaming and batch alignment must produce the same trace.
	var in []Op
	at := sim.Time(0)
	for i := 0; i < 200; i++ {
		at += sim.Time(i%7) * sim.Microsecond
		kind := Write
		if i%11 == 0 {
			kind = Read
		}
		in = append(in, Op{
			At:     at,
			Kind:   kind,
			Offset: int64(i%13) * 4096,
			Size:   4096 * int64(i%3+1),
		})
	}
	opts := AlignOptions{MaxGap: 10 * sim.Microsecond, ReadBarrier: true}
	want, err := AlignWith(in, 32<<10, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := AlignStream(FromSlice(in), 32<<10, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(s)
	if err := Err(s); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("stream align diverged: %d vs %d ops", len(want), len(got))
	}
}

// randomAlignInput builds a trace that exercises every aligner path:
// contiguous write runs (merged), overlapping rewrites and jumps
// (flushed), sub-page sizes (unaligned heads and tails), priority
// changes, reads and frees that may or may not touch the buffer, and
// arrival gaps on both sides of the MaxGap used by the sweep.
func randomAlignInput(rng *sim.RNG, n int) []Op {
	ops := make([]Op, 0, n)
	var at sim.Time
	next := int64(0)
	for i := 0; i < n; i++ {
		at += sim.Time(rng.Intn(20)) * sim.Microsecond
		off := rng.Int63n(64) * 4096
		if rng.Bool(0.5) {
			off = next // continue the previous op
		}
		size := 4096 * (rng.Int63n(4) + 1)
		if rng.Bool(0.25) {
			size = 512 * (rng.Int63n(8) + 1)
		}
		kind := Write
		switch r := rng.Float64(); {
		case r < 0.15:
			kind = Read
		case r < 0.22:
			kind = Free
		}
		ops = append(ops, Op{At: at, Kind: kind, Offset: off, Size: size, Priority: rng.Bool(0.1)})
		next = off + size
	}
	return ops
}

// alignPrefix is what a stream over in must emit when it stops right
// after pushing in[:k] without the end-of-stream flush: a source error
// or an invalid in[k]. It also reports whether the last push emitted
// ops and whether the buffer still held data afterwards.
func alignPrefix(t *testing.T, in []Op, k int, stripe int64, opts AlignOptions) (out []Op, lastEmitted, buffered bool) {
	t.Helper()
	a, err := newAligner(stripe, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range in[:k] {
		before := len(a.out)
		if err := a.push(o); err != nil {
			t.Fatal(err)
		}
		lastEmitted = i == k-1 && len(a.out) > before
	}
	return a.out, lastEmitted, a.pendingValid
}

// failAfter yields its ops, then ends with err.
type failAfter struct {
	ops []Op
	err error
}

func (f *failAfter) Next() (Op, bool) {
	if len(f.ops) == 0 {
		return Op{}, false
	}
	op := f.ops[0]
	f.ops = f.ops[1:]
	return op, true
}

func (f *failAfter) Err() error {
	if len(f.ops) == 0 {
		return f.err
	}
	return nil
}

// collectAll drains s and checks that an exhausted stream stays
// exhausted.
func collectAll(t *testing.T, s Stream) []Op {
	t.Helper()
	got := Collect(s)
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted align stream yielded another op")
	}
	return got
}

// sameOps compares traces, treating nil and empty alike.
func sameOps(a, b []Op) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func TestAlignStreamMatchesAlignWithRandomized(t *testing.T) {
	// The stream reuses one output slice across refills; any slip in when
	// it empties that slice re-emits or drops ops, which only a sweep
	// over where the trace ends relative to the buffer reliably exposes.
	errSrc := errors.New("source failed")
	var lastEmits, lastBuffers, cases int
	for seed := int64(1); seed <= 60; seed++ {
		rng := sim.NewRNG(seed)
		in := randomAlignInput(rng, rng.Intn(300))
		stripe := []int64{4096, 16 << 10, 32 << 10}[seed%3]
		for _, opts := range []AlignOptions{
			{},
			{MaxGap: 10 * sim.Microsecond},
			{ReadBarrier: true},
			{MaxGap: 10 * sim.Microsecond, ReadBarrier: true},
		} {
			cases++
			name := fmt.Sprintf("seed %d, %d ops, stripe %d, %+v", seed, len(in), stripe, opts)
			want, err := AlignWith(in, stripe, opts)
			if err != nil {
				t.Fatal(err)
			}
			s, err := AlignStream(FromSlice(in), stripe, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := collectAll(t, s); !sameOps(want, got) {
				t.Fatalf("%s: stream emitted %d ops, AlignWith %d", name, len(got), len(want))
			}
			if err := Err(s); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(in) == 0 {
				continue
			}
			_, emitted, buffered := alignPrefix(t, in, len(in), stripe, opts)
			if emitted {
				lastEmits++
			}
			if buffered {
				lastBuffers++
			}

			// A source error after k ops: the first k pushes' output and
			// nothing of the buffer.
			k := rng.Intn(len(in) + 1)
			wantPrefix, _, _ := alignPrefix(t, in, k, stripe, opts)
			s, _ = AlignStream(&failAfter{ops: in[:k], err: errSrc}, stripe, opts)
			if got := collectAll(t, s); !sameOps(wantPrefix, got) {
				t.Fatalf("%s: source error after %d ops: emitted %d ops, want %d", name, k, len(got), len(wantPrefix))
			}
			if !errors.Is(Err(s), errSrc) {
				t.Fatalf("%s: source error lost: %v", name, Err(s))
			}

			// An invalid op at k: the same prefix, then a validation error.
			bad := append(append([]Op(nil), in[:k]...), Op{Kind: Write, Offset: 0, Size: 0})
			bad = append(bad, in[k:]...)
			s, _ = AlignStream(FromSlice(bad), stripe, opts)
			if got := collectAll(t, s); !sameOps(wantPrefix, got) {
				t.Fatalf("%s: invalid op at %d: emitted %d ops, want %d", name, k, len(got), len(wantPrefix))
			}
			if Err(s) == nil {
				t.Fatalf("%s: validation error lost", name)
			}
		}
	}
	// The sweep must cover both endings: a last push that emitted ops
	// (which a stale output slice would re-emit at the final flush) and a
	// last op still buffered (which only the final flush releases).
	if lastEmits == 0 || lastBuffers == 0 {
		t.Fatalf("sweep of %d cases: last push emitted in %d, buffered in %d; want both > 0", cases, lastEmits, lastBuffers)
	}
}

func TestAlignStreamRejectsBadStripe(t *testing.T) {
	if _, err := AlignStream(FromSlice(nil), 0, AlignOptions{}); err == nil {
		t.Fatal("accepted zero stripe")
	}
}

func TestAlignStreamSurfacesPushError(t *testing.T) {
	s, err := AlignStream(FromSlice([]Op{{Kind: Write, Offset: 0, Size: 0}}), 4096, AlignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := Collect(s); len(got) != 0 {
		t.Fatalf("emitted ops from invalid input: %v", got)
	}
	if Err(s) == nil {
		t.Fatal("validation error lost")
	}
}

func TestAlignStreamDiscardsBufferOnSourceError(t *testing.T) {
	// A sub-stripe write sits in the aligner's buffer when the source
	// fails; it must be discarded, not emitted as a clean flush.
	d := NewDecoder(strings.NewReader("0 W 0 4096\nbroken line\n"))
	s, err := AlignStream(d, 32<<10, AlignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := Collect(s); len(got) != 0 {
		t.Fatalf("emitted %d ops after source error", len(got))
	}
	if Err(s) == nil {
		t.Fatal("source error lost")
	}
}

func TestDecoderIOErr(t *testing.T) {
	d := NewDecoder(errReader{})
	if _, ok := d.Next(); ok {
		t.Fatal("read from broken reader")
	}
	if !errors.Is(d.Err(), errBroken) {
		t.Fatalf("err = %v", d.Err())
	}
}

var errBroken = errors.New("broken")

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errBroken }
