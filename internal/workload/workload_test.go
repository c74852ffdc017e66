package workload

import (
	"fmt"
	"reflect"
	"testing"

	"ossd/internal/sim"
	"ossd/internal/trace"
)

func TestSyntheticValidation(t *testing.T) {
	bad := []SyntheticConfig{
		{Ops: 0, AddressSpace: 1 << 20, ReqSize: 4096},
		{Ops: 10, AddressSpace: 1024, ReqSize: 4096},
		{Ops: 10, AddressSpace: 1 << 20, ReqSize: 4096, ReadFrac: 1.5},
		{Ops: 10, AddressSpace: 1 << 20, ReqSize: 4096, SeqProb: -0.1},
		{Ops: 10, AddressSpace: 1 << 20, ReqSize: 4096, InterarrivalLo: 10, InterarrivalHi: 5},
	}
	for i, c := range bad {
		if _, err := collect(Synthetic(c)); err == nil {
			t.Errorf("case %d: accepted %+v", i, c)
		}
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	cfg := SyntheticConfig{Ops: 100, AddressSpace: 1 << 20, ReqSize: 4096, ReadFrac: 0.5, SeqProb: 0.3, Seed: 42}
	a, err := collect(Synthetic(cfg))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := collect(Synthetic(cfg))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	cfg.Seed = 43
	c, _ := collect(Synthetic(cfg))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestSyntheticShape(t *testing.T) {
	cfg := SyntheticConfig{
		Ops: 5000, AddressSpace: 1 << 24, ReqSize: 4096,
		ReadFrac: 0.66, SeqProb: 0, PriorityFrac: 0.1,
		InterarrivalLo: 0, InterarrivalHi: 100 * sim.Microsecond, Seed: 1,
	}
	ops, err := collect(Synthetic(cfg))
	if err != nil {
		t.Fatal(err)
	}
	s := summarize(ops)
	if s.Ops != 5000 {
		t.Fatalf("ops = %d", s.Ops)
	}
	rf := float64(s.Reads) / float64(s.Ops)
	if rf < 0.62 || rf > 0.70 {
		t.Fatalf("read fraction = %v, want ~0.66", rf)
	}
	pf := float64(s.PriorityOps) / float64(s.Ops)
	if pf < 0.07 || pf > 0.13 {
		t.Fatalf("priority fraction = %v, want ~0.1", pf)
	}
	for _, o := range ops {
		if o.Size != 4096 || o.Offset%4096 != 0 {
			t.Fatalf("bad op %+v", o)
		}
		if o.End() > cfg.AddressSpace {
			t.Fatalf("op beyond space: %+v", o)
		}
	}
	// Timestamps non-decreasing.
	for i := 1; i < len(ops); i++ {
		if ops[i].At < ops[i-1].At {
			t.Fatal("timestamps decrease")
		}
	}
}

func TestSyntheticSequentiality(t *testing.T) {
	count := func(p float64) int {
		cfg := SyntheticConfig{Ops: 2000, AddressSpace: 1 << 26, ReqSize: 4096, SeqProb: p, Seed: 5}
		ops, err := collect(Synthetic(cfg))
		if err != nil {
			t.Fatal(err)
		}
		seq := 0
		for i := 1; i < len(ops); i++ {
			if ops[i].Offset == ops[i-1].End() {
				seq++
			}
		}
		return seq
	}
	lo, hi := count(0.0), count(0.8)
	if hi <= lo*4 {
		t.Fatalf("sequential continuation counts: p=0 %d, p=0.8 %d", lo, hi)
	}
}

func TestSequentialWrites(t *testing.T) {
	ops := drain(SequentialWrites(10, 1<<20, 4<<20))
	if len(ops) != 10 {
		t.Fatalf("len = %d", len(ops))
	}
	// Walks sequentially, wrapping at the space boundary.
	if ops[1].Offset != 1<<20 || ops[4].Offset != 0 {
		t.Fatalf("offsets: %v %v", ops[1].Offset, ops[4].Offset)
	}
	for _, o := range ops {
		if o.End() > 4<<20 {
			t.Fatalf("op beyond space: %+v", o)
		}
	}
}

func TestPostmarkTrace(t *testing.T) {
	cfg := PostmarkConfig{
		Transactions:  2000,
		InitialFiles:  50,
		CapacityBytes: 64 << 20,
		Seed:          7,
	}
	ops, err := collect(Postmark(cfg))
	if err != nil {
		t.Fatal(err)
	}
	s := summarize(ops)
	if s.Writes == 0 || s.Reads == 0 {
		t.Fatalf("missing op kinds: %+v", s)
	}
	if s.Frees == 0 {
		t.Fatal("postmark trace has no free notifications — deletions missing")
	}
	if s.MaxOffset > cfg.CapacityBytes {
		t.Fatalf("ops beyond capacity: %d", s.MaxOffset)
	}
	// Every op block-aligned.
	for _, o := range ops {
		if o.Offset%4096 != 0 || o.Size%4096 != 0 {
			t.Fatalf("unaligned postmark op: %+v", o)
		}
	}
	// Determinism.
	again, _ := collect(Postmark(cfg))
	if !reflect.DeepEqual(ops, again) {
		t.Fatal("postmark not deterministic")
	}
}

// TestPostmarkStreamAllocs pins the generator's allocation budget on the
// Table 5 shape: pulling a Postmark stream allocates only what the file
// set itself grows (a new file's extent list, a longer one on append,
// map growth), well under one object per transaction. A closure or a
// copied extent list per step, per read or per delete would each add
// more than the whole budget's headroom.
func TestPostmarkStreamAllocs(t *testing.T) {
	const transactions = 20000
	cfg := PostmarkConfig{
		Transactions:  transactions,
		InitialFiles:  1150,
		FileSizeMin:   4 << 10,
		FileSizeMax:   64 << 10,
		CapacityBytes: 512 << 20,
		Seed:          1,
	}
	allocs := testing.AllocsPerRun(2, func() {
		st, err := Postmark(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := st.Next(); !ok {
				break
			}
		}
	})
	if perTx := allocs / transactions; perTx > 0.5 {
		t.Fatalf("postmark stream allocates %.3f objects per transaction, want <= 0.5", perTx)
	}
}

func TestPostmarkFreesMatchWrites(t *testing.T) {
	// Freed ranges must previously have been written (the fs only frees
	// allocated blocks).
	cfg := PostmarkConfig{Transactions: 1000, InitialFiles: 20, CapacityBytes: 32 << 20, Seed: 11}
	ops, err := collect(Postmark(cfg))
	if err != nil {
		t.Fatal(err)
	}
	written := map[int64]bool{}
	for _, o := range ops {
		switch o.Kind {
		case trace.Write:
			for b := o.Offset; b < o.End(); b += 4096 {
				written[b] = true
			}
		case trace.Free:
			for b := o.Offset; b < o.End(); b += 4096 {
				if !written[b] {
					t.Fatalf("free of never-written block %d", b)
				}
			}
		}
	}
}

func TestPostmarkValidation(t *testing.T) {
	if _, err := collect(Postmark(PostmarkConfig{})); err == nil {
		t.Error("accepted empty config")
	}
	if _, err := collect(Postmark(PostmarkConfig{Transactions: 10})); err == nil {
		t.Error("accepted zero capacity")
	}
	if _, err := collect(Postmark(PostmarkConfig{Transactions: 10, CapacityBytes: 1 << 20, FileSizeMin: 4096, FileSizeMax: 512})); err == nil {
		t.Error("accepted max < min")
	}
}

func TestTPCCTrace(t *testing.T) {
	cfg := OLTPConfig{Ops: 3000, CapacityBytes: 256 << 20, Seed: 13, MeanInterarrival: 50 * sim.Microsecond}
	ops, err := collect(TPCC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	s := summarize(ops)
	if s.Ops < 3000 {
		t.Fatalf("ops = %d, want >= 3000 (data + log)", s.Ops)
	}
	var dataOps, logOps int
	logRegion := cfg.CapacityBytes / 16
	for _, o := range ops {
		if o.Offset < logRegion {
			logOps++
			if o.Kind != trace.Write {
				t.Fatal("log region op is not a write")
			}
		} else {
			dataOps++
			if o.Size != 8192 {
				t.Fatalf("data op size = %d", o.Size)
			}
		}
	}
	if logOps == 0 {
		t.Fatal("no log writes")
	}
	// Zipf locality: hottest data page should recur.
	counts := map[int64]int{}
	for _, o := range ops {
		if o.Offset >= logRegion {
			counts[o.Offset]++
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 5 {
		t.Fatalf("no hot pages (max repeat %d); zipf skew missing", max)
	}
}

func TestTPCCValidation(t *testing.T) {
	if _, err := collect(TPCC(OLTPConfig{})); err == nil {
		t.Error("accepted empty config")
	}
	if _, err := collect(TPCC(OLTPConfig{Ops: 10, CapacityBytes: 8192})); err == nil {
		t.Error("accepted tiny capacity")
	}
}

func TestExchangeTrace(t *testing.T) {
	ops, err := collect(Exchange(ExchangeConfig{Ops: 2000, CapacityBytes: 128 << 20, Seed: 17}))
	if err != nil {
		t.Fatal(err)
	}
	s := summarize(ops)
	if s.Reads == 0 || s.Writes == 0 {
		t.Fatal("missing kinds")
	}
	// Must include some sequential 8 KB write bursts (mergeable runs).
	runs := 0
	for i := 1; i < len(ops); i++ {
		if ops[i].Kind == trace.Write && ops[i-1].Kind == trace.Write && ops[i].Offset == ops[i-1].End() {
			runs++
		}
	}
	if runs == 0 {
		t.Fatal("no sequential write runs in exchange trace")
	}
}

func TestExchangeValidation(t *testing.T) {
	if _, err := collect(Exchange(ExchangeConfig{})); err == nil {
		t.Error("accepted empty config")
	}
	if _, err := collect(Exchange(ExchangeConfig{Ops: 10, CapacityBytes: 1024})); err == nil {
		t.Error("accepted tiny capacity")
	}
}

func TestIOzoneTrace(t *testing.T) {
	cfg := IOzoneConfig{FileBytes: 4 << 20, RecordBytes: 128 << 10, Seed: 19}
	ops, err := collect(IOzone(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// Four phases: write, rewrite, read, reread.
	recs := int((cfg.FileBytes + cfg.RecordBytes - 1) / cfg.RecordBytes)
	if len(ops) != 4*recs {
		t.Fatalf("ops = %d, want %d", len(ops), 4*recs)
	}
	s := summarize(ops)
	if s.Writes != 2*recs || s.Reads != 2*recs {
		t.Fatalf("phase mix: %+v", s)
	}
	// File starts unaligned (allocator placement).
	if ops[0].Offset%(32<<10) == 0 {
		t.Fatal("iozone file unexpectedly stripe-aligned; the experiment depends on misalignment")
	}
	// Records within a phase are contiguous.
	if ops[1].Offset != ops[0].End() {
		t.Fatal("records not contiguous")
	}
}

func TestIOzoneValidation(t *testing.T) {
	if _, err := collect(IOzone(IOzoneConfig{})); err == nil {
		t.Error("accepted empty config")
	}
}

func TestMacroGeneratorsDeterministic(t *testing.T) {
	// Identical seeds must reproduce identical traces for every macro
	// generator — the property every experiment depends on.
	p1, _ := collect(Postmark(PostmarkConfig{Transactions: 500, InitialFiles: 20, CapacityBytes: 16 << 20, Seed: 5}))
	p2, _ := collect(Postmark(PostmarkConfig{Transactions: 500, InitialFiles: 20, CapacityBytes: 16 << 20, Seed: 5}))
	if !reflect.DeepEqual(p1, p2) {
		t.Error("postmark not deterministic")
	}
	t1, _ := collect(TPCC(OLTPConfig{Ops: 500, CapacityBytes: 64 << 20, Seed: 5}))
	t2, _ := collect(TPCC(OLTPConfig{Ops: 500, CapacityBytes: 64 << 20, Seed: 5}))
	if !reflect.DeepEqual(t1, t2) {
		t.Error("tpcc not deterministic")
	}
	e1, _ := collect(Exchange(ExchangeConfig{Ops: 500, CapacityBytes: 64 << 20, Seed: 5}))
	e2, _ := collect(Exchange(ExchangeConfig{Ops: 500, CapacityBytes: 64 << 20, Seed: 5}))
	if !reflect.DeepEqual(e1, e2) {
		t.Error("exchange not deterministic")
	}
	i1, _ := collect(IOzone(IOzoneConfig{FileBytes: 1 << 20, Seed: 5}))
	i2, _ := collect(IOzone(IOzoneConfig{FileBytes: 1 << 20, Seed: 5}))
	if !reflect.DeepEqual(i1, i2) {
		t.Error("iozone not deterministic")
	}
}

func TestPostmarkMetadataStream(t *testing.T) {
	with, err := collect(Postmark(PostmarkConfig{Transactions: 500, InitialFiles: 20, CapacityBytes: 16 << 20, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	without, err := collect(Postmark(PostmarkConfig{Transactions: 500, InitialFiles: 20, CapacityBytes: 16 << 20, Seed: 5, NoMetadata: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(with) <= len(without) {
		t.Fatalf("metadata stream missing: %d vs %d ops", len(with), len(without))
	}
	// Metadata writes land in the reserved tail region.
	metaBase := int64(16<<20) - int64(16<<20)/32
	sawMeta := false
	for _, o := range with {
		if o.Kind == trace.Write && o.Offset >= metaBase {
			sawMeta = true
			break
		}
	}
	if !sawMeta {
		t.Fatal("no metadata-region writes")
	}
	for _, o := range without {
		if o.Offset >= int64(16<<20) {
			t.Fatal("NoMetadata trace exceeded capacity")
		}
	}
}

// The name->constructor registry must cover every generator and produce
// exactly what the direct constructors produce for equivalent configs.
func TestGeneratorRegistry(t *testing.T) {
	want := []string{"exchange", "iozone", "postmark", "seqwrites", "synthetic", "tpcc"}
	if got := fmt.Sprint(Generators()); got != fmt.Sprint(want) {
		t.Fatalf("Generators() = %v, want %v", Generators(), want)
	}

	if _, err := NewStream("nope", GenParams{}); err == nil {
		t.Fatal("unknown generator accepted")
	}

	// Registry synthetic == direct Synthetic with the uniform [0, 2*mean]
	// inter-arrival tracegen always used.
	direct, err := Synthetic(SyntheticConfig{
		Ops: 500, AddressSpace: 1 << 22, ReqSize: 4096, ReadFrac: 0.5,
		InterarrivalLo: 0, InterarrivalHi: 200 * sim.Microsecond, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	viaName, err := NewStream("synthetic", GenParams{
		Ops: 500, CapacityBytes: 1 << 22, ReadFrac: 0.5,
		MeanInterarrivalUs: 100, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(drain(direct), drain(viaName)) {
		t.Fatal("registry synthetic diverged from direct constructor")
	}

	// Registry postmark == direct Postmark.
	dpm, err := Postmark(PostmarkConfig{
		Transactions: 400, CapacityBytes: 16 << 20,
		MeanInterarrival: 100 * sim.Microsecond, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	npm, err := NewStream("postmark", GenParams{
		Transactions: 400, CapacityBytes: 16 << 20,
		MeanInterarrivalUs: 100, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(drain(dpm), drain(npm)) {
		t.Fatal("registry postmark diverged from direct constructor")
	}
}

// summarize tallies a materialized trace.
func summarize(ops []trace.Op) trace.Stats {
	var st trace.Stats
	drain(trace.Tally(trace.FromSlice(ops), &st))
	return st
}

// collect drains a generator's stream, passing its construction error
// through.
func collect(s trace.Stream, err error) ([]trace.Op, error) {
	if err != nil {
		return nil, err
	}
	return drain(s), nil
}

// drain materializes a stream; the tests' traces are small.
func drain(s trace.Stream) []trace.Op {
	var ops []trace.Op
	for op, ok := s.Next(); ok; op, ok = s.Next() {
		ops = append(ops, op)
	}
	return ops
}
