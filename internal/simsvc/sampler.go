package simsvc

import (
	"context"

	"ossd/internal/core"
	"ossd/internal/trace"
)

// sampledStream wraps a workload stream so the device is observed while
// it is driven: every `every` operations pulled, it snapshots the
// device's metrics and clock and hands the Sample to emit. It is also
// the cancellation point — ctx's Done channel is polled on every pull,
// so a cancelled job stops with per-op granularity without touching the
// engine. The channel is captured once: a non-blocking receive on it
// takes no lock, where ctx.Err takes the context's mutex on every call.
//
// Next runs on the engine's goroutine (core's drive loop pulls one op at
// a time), so reading Metrics here is race-free; emit must do its own
// synchronization if it publishes elsewhere.
type sampledStream struct {
	ctx   context.Context
	done  <-chan struct{} // ctx.Done(); nil (never ready) if ctx cannot end
	dev   core.Device
	src   trace.Stream
	every int64
	emit  func(Sample)
	n     int64
	err   error
}

func (s *sampledStream) Next() (trace.Op, bool) {
	if s.err != nil {
		return trace.Op{}, false
	}
	select {
	case <-s.done:
		s.err = s.ctx.Err()
		return trace.Op{}, false
	default:
	}
	op, ok := s.src.Next()
	if !ok {
		return trace.Op{}, false
	}
	s.n++
	if s.every > 0 && s.n%s.every == 0 {
		s.sample()
	}
	return op, true
}

// sample takes one observation now.
func (s *sampledStream) sample() {
	s.emit(Sample{
		Ops:              s.n,
		SimulatedSeconds: s.dev.Engine().Now().Seconds(),
		Snapshot:         s.dev.Metrics(),
	})
}

// Err implements trace.ErrStream: cancellation surfaces as the stream's
// iteration error, which Device.Drive returns.
func (s *sampledStream) Err() error {
	if s.err != nil {
		return s.err
	}
	return trace.Err(s.src)
}

// DriveSampled drives d with src to completion (or cancellation),
// emitting a telemetry Sample every `every` operations plus one final
// sample after the device drains — so even a short job yields at least
// one observation. It returns ctx's error if the job was cancelled
// mid-stream, and the number of ops pulled either way.
func DriveSampled(ctx context.Context, d core.Device, src trace.Stream, every int, emit func(Sample)) (int64, error) {
	ss := &sampledStream{ctx: ctx, done: ctx.Done(), dev: d, src: src, every: int64(every), emit: emit}
	err := d.Drive(ss)
	ss.sample()
	return ss.n, err
}
