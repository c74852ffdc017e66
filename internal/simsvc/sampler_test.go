package simsvc

import (
	"context"
	"errors"
	"testing"

	"ossd/internal/core"
	"ossd/internal/trace"
	"ossd/internal/workload"
)

// cancelAfter passes src through and calls cancel once it has handed
// out `at` ops.
type cancelAfter struct {
	src    trace.Stream
	at, n  int64
	cancel context.CancelFunc
}

func (c *cancelAfter) Next() (trace.Op, bool) {
	op, ok := c.src.Next()
	if ok {
		c.n++
		if c.n == c.at {
			c.cancel()
		}
	}
	return op, ok
}

// TestDriveSampledCancelMidStream pins the sampler's cancellation
// granularity: a context cancelled while op k is being pulled ends the
// stream at the very next pull, so exactly k ops reach the device and
// the drive reports the context's error.
func TestDriveSampledCancelMidStream(t *testing.T) {
	const at = 137
	dev, err := core.Open("ssd")
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(5_000, 3)
	src, err := workload.NewStream(spec.Workload, spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	samples := 0
	n, err := DriveSampled(ctx, dev, &cancelAfter{src: src, at: at, cancel: cancel}, 50, func(Sample) { samples++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DriveSampled error = %v, want context.Canceled", err)
	}
	if n != at {
		t.Fatalf("pulled %d ops after cancelling at op %d, want %d", n, at, at)
	}
	if want := at/50 + 1; samples != want { // every 50 ops plus the final one
		t.Fatalf("%d samples, want %d", samples, want)
	}
	if got := dev.Metrics().Completed; got > at {
		t.Fatalf("device saw %d ops, want at most %d", got, at)
	}
}
