// Package workload generates the I/O streams the paper evaluates with:
// parameterized synthetic streams (request mix, sequentiality, priority
// fraction, inter-arrival distribution) and four macro workloads —
// Postmark (run through the fsmodel allocator so deletions appear as free
// notifications), TPC-C, Exchange, and IOzone — matching each workload's
// published I/O signature.
//
// Every generator returns a trace.Stream: operations are produced on
// demand, so a million-op workload costs the same memory as a hundred-op
// one. The …Ops variants materialize the stream for callers that still
// need a slice; for a fixed seed the stream and the slice are identical
// op for op.
package workload

import (
	"fmt"

	"ossd/internal/sim"
	"ossd/internal/trace"
)

// SyntheticConfig parameterizes a synthetic stream.
type SyntheticConfig struct {
	// Ops is the number of operations to generate.
	Ops int
	// AddressSpace is the byte range targeted.
	AddressSpace int64
	// ReadFrac is the fraction of reads (the rest are writes).
	ReadFrac float64
	// SeqProb is the probability an op continues at the previous op's end
	// (the paper's "degree of sequentiality").
	SeqProb float64
	// ReqSize is the per-op size in bytes.
	ReqSize int64
	// Align constrains random offsets; zero means ReqSize alignment.
	Align int64
	// InterarrivalLo/Hi bound a uniform inter-arrival distribution.
	// Lo==Hi==0 produces all-at-zero timestamps (back-to-back arrivals).
	InterarrivalLo, InterarrivalHi sim.Time
	// PriorityFrac marks this fraction of ops as priority requests.
	PriorityFrac float64
	// Seed selects the random stream.
	Seed int64
}

// Validate checks the configuration.
func (c *SyntheticConfig) Validate() error {
	if c.Ops <= 0 {
		return fmt.Errorf("workload: Ops must be positive, got %d", c.Ops)
	}
	if c.ReqSize <= 0 || c.AddressSpace < c.ReqSize {
		return fmt.Errorf("workload: bad sizes: req %d space %d", c.ReqSize, c.AddressSpace)
	}
	if c.ReadFrac < 0 || c.ReadFrac > 1 || c.SeqProb < 0 || c.SeqProb > 1 || c.PriorityFrac < 0 || c.PriorityFrac > 1 {
		return fmt.Errorf("workload: fractions out of [0,1]")
	}
	if c.InterarrivalHi < c.InterarrivalLo {
		return fmt.Errorf("workload: inter-arrival hi < lo")
	}
	if c.Align == 0 {
		c.Align = c.ReqSize
	}
	if c.Align < 0 {
		return fmt.Errorf("workload: negative alignment")
	}
	return nil
}

// Synthetic returns the stream, generating one operation per pull.
func Synthetic(cfg SyntheticConfig) (trace.Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)
	slots := (cfg.AddressSpace - cfg.ReqSize) / cfg.Align
	if slots <= 0 {
		slots = 1
	}
	var at sim.Time
	var lastEnd int64
	i := 0
	return trace.Func(func() (trace.Op, bool) {
		if i >= cfg.Ops {
			return trace.Op{}, false
		}
		var off int64
		if i > 0 && rng.Bool(cfg.SeqProb) && lastEnd+cfg.ReqSize <= cfg.AddressSpace {
			off = lastEnd
		} else {
			off = rng.Int63n(slots) * cfg.Align
		}
		i++
		kind := trace.Write
		if rng.Bool(cfg.ReadFrac) {
			kind = trace.Read
		}
		op := trace.Op{
			At:       at,
			Kind:     kind,
			Offset:   off,
			Size:     cfg.ReqSize,
			Priority: rng.Bool(cfg.PriorityFrac),
		}
		lastEnd = op.End()
		at += rng.UniformDuration(cfg.InterarrivalLo, cfg.InterarrivalHi)
		return op, true
	}), nil
}

// SequentialWrites streams n back-to-back writes of the given size
// walking the address space from offset 0, wrapping at space. Used for
// the Figure 2 write-amplification sweep.
func SequentialWrites(n int, size, space int64) trace.Stream {
	var off int64
	i := 0
	return trace.Func(func() (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		i++
		if off+size > space {
			off = 0
		}
		op := trace.Op{Kind: trace.Write, Offset: off, Size: size}
		off += size
		return op, true
	})
}
