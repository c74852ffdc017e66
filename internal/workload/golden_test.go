package workload

import (
	"fmt"
	"hash/fnv"
	"testing"

	"ossd/internal/sim"
	"ossd/internal/trace"
)

// opsHash fingerprints a trace so the stream redesign can be pinned to
// the exact sequences the slice-era generators produced.
func opsHash(ops []trace.Op) uint64 {
	h := fnv.New64a()
	for _, o := range ops {
		fmt.Fprintf(h, "%d|%d|%d|%d|%v\n", int64(o.At), o.Kind, o.Offset, o.Size, o.Priority)
	}
	return h.Sum64()
}

// The golden counts and FNV-1a hashes below were captured from the
// legacy slice-returning generators immediately before the stream
// redesign. They pin both properties the migration promised: the
// streams produce op-for-op what the slices did, and the …Ops adapters
// are exact.
func TestGeneratorsMatchLegacyGolden(t *testing.T) {
	cases := []struct {
		name   string
		stream func() (trace.Stream, error)
		ops    int
		hash   uint64
	}{
		{
			name: "synthetic",
			stream: func() (trace.Stream, error) {
				return Synthetic(SyntheticConfig{
					Ops: 5000, AddressSpace: 1 << 24, ReqSize: 4096, ReadFrac: 0.66,
					SeqProb: 0.3, PriorityFrac: 0.1,
					InterarrivalLo: 0, InterarrivalHi: 100 * sim.Microsecond, Seed: 42,
				})
			},
			ops:  5000,
			hash: 0x1af91677686111ac,
		},
		{
			name: "postmark",
			stream: func() (trace.Stream, error) {
				return Postmark(PostmarkConfig{
					Transactions: 3000, InitialFiles: 100, CapacityBytes: 64 << 20,
					MeanInterarrival: 200 * sim.Microsecond, Seed: 42,
				})
			},
			ops:  7444,
			hash: 0x133f255a51170293,
		},
		{
			name: "tpcc",
			stream: func() (trace.Stream, error) {
				return TPCC(OLTPConfig{
					Ops: 4000, CapacityBytes: 128 << 20,
					MeanInterarrival: 50 * sim.Microsecond, Seed: 42,
				})
			},
			ops:  5025,
			hash: 0xeae119e8537b7994,
		},
		{
			name: "exchange",
			stream: func() (trace.Stream, error) {
				return Exchange(ExchangeConfig{
					Ops: 4000, CapacityBytes: 128 << 20,
					MeanInterarrival: 50 * sim.Microsecond, Seed: 42,
				})
			},
			ops:  4612,
			hash: 0xa34dea3dff86cc71,
		},
		{
			name: "iozone",
			stream: func() (trace.Stream, error) {
				return IOzone(IOzoneConfig{
					FileBytes: 8 << 20, RecordBytes: 128 << 10,
					MeanInterarrival: 100 * sim.Microsecond, Seed: 42,
				})
			},
			ops:  256,
			hash: 0xd8d7f6e662d7b9e7,
		},
		{
			name: "seqwrites",
			stream: func() (trace.Stream, error) {
				return SequentialWrites(500, 1<<20, 64<<20), nil
			},
			ops:  500,
			hash: 0xa6c748873bb4dc7,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.stream()
			if err != nil {
				t.Fatal(err)
			}
			got := drain(s)
			if len(got) != tc.ops {
				t.Fatalf("stream produced %d ops, legacy produced %d", len(got), tc.ops)
			}
			if h := opsHash(got); h != tc.hash {
				t.Fatalf("stream hash %#x, legacy hash %#x — sequence diverged", h, tc.hash)
			}
		})
	}
}

// Pulling a stream twice must not re-run generation: streams are
// single-use and exhausted streams stay exhausted.
func TestStreamsAreSingleUse(t *testing.T) {
	s, err := Synthetic(SyntheticConfig{Ops: 10, AddressSpace: 1 << 20, ReqSize: 4096, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(s); len(got) != 10 {
		t.Fatalf("first drain: %d", len(got))
	}
	if got := drain(s); len(got) != 0 {
		t.Fatalf("second drain yielded %d ops", len(got))
	}
}
