package trace

import (
	"fmt"

	"ossd/internal/sim"
)

// aligner implements the write merging-and-alignment scheme of §3.4: it
// buffers contiguous writes and re-issues them split on stripe (logical
// page) boundaries, so that full stripes reach the device as single
// aligned writes and never trigger read-modify-write amplification.
//
// The scheme is exactly what the paper argues the *device* should do
// (because the file system cannot know the stripe size); implementing it
// as a trace transformation lets the experiments compare "issue writes as
// they arrive" against "merge and align" on identical workloads.
type aligner struct {
	stripe int64
	opts   AlignOptions

	// pending is the coalescing buffer: a single contiguous dirty range.
	// Emitted ops carry the arrival time of the write that completed
	// them: buffered data sits until a later write fills the stripe or
	// forces a flush, exactly like a hardware write buffer.
	pendingValid bool
	pendingLast  int64 // arrival of the most recent merged write (ns)
	pendingPri   bool
	pendingOff   int64
	pendingEnd   int64

	// out collects emitted ops until the consumer empties it; a stream
	// truncates it to [:0] between refills so its capacity is reused.
	out []Op
}

// AlignOptions bound how aggressively the buffer merges, modeling a real
// write buffer rather than an oracle with unbounded hold time.
type AlignOptions struct {
	// MaxGap flushes the buffer when the next write arrives more than
	// this long after the previous buffered write (a buffer hold
	// timeout). Zero means unbounded.
	MaxGap sim.Time
	// ReadBarrier flushes the buffer on every read, overlapping or not —
	// the conservative ordering a simple device firmware would enforce.
	ReadBarrier bool
}

// newAligner creates an aligner for the given stripe size in bytes with
// merge bounds.
func newAligner(stripe int64, opts AlignOptions) (*aligner, error) {
	if stripe <= 0 {
		return nil, fmt.Errorf("trace: stripe must be positive, got %d", stripe)
	}
	return &aligner{stripe: stripe, opts: opts}, nil
}

// push feeds one operation through the aligner: writes are merged and
// split on stripe boundaries; reads and frees flush any overlapping
// buffered write first and pass through unchanged.
func (a *aligner) push(o Op) error {
	if err := o.Validate(); err != nil {
		return err
	}
	switch o.Kind {
	case Write:
		a.pushWrite(o)
	default:
		// A read or free that touches the buffered range must observe the
		// buffered data: flush first. With ReadBarrier, any read flushes.
		overlap := a.pendingValid && o.overlaps(a.pendingOff, a.pendingEnd-a.pendingOff)
		if overlap || (a.opts.ReadBarrier && o.Kind == Read) {
			a.flush()
		}
		a.out = append(a.out, o)
	}
	return nil
}

func (a *aligner) pushWrite(o Op) {
	if a.pendingValid && a.opts.MaxGap > 0 && int64(o.At)-a.pendingLast > int64(a.opts.MaxGap) {
		// Buffer hold timeout expired before this write arrived.
		a.flush()
	}
	if a.pendingValid && o.Offset == a.pendingEnd && o.Priority == a.pendingPri {
		// Contiguous continuation: extend the buffer.
		a.pendingEnd = o.End()
		a.pendingLast = int64(o.At)
	} else if a.pendingValid && o.overlaps(a.pendingOff, a.pendingEnd-a.pendingOff) {
		// Overlapping rewrite: flush, then start fresh.
		a.flush()
		a.open(o)
	} else if a.pendingValid {
		// Discontiguous: the run ended; flush and start a new one.
		a.flush()
		a.open(o)
	} else {
		a.open(o)
	}
	// Emit any complete stripes eagerly so the buffer holds less than one
	// stripe; this bounds buffering and keeps issue order close to
	// arrival order.
	a.drainFullStripes()
}

func (a *aligner) open(o Op) {
	a.pendingValid = true
	a.pendingLast = int64(o.At)
	a.pendingPri = o.Priority
	a.pendingOff = o.Offset
	a.pendingEnd = o.End()
}

// drainFullStripes emits every fully-covered, stripe-aligned chunk of the
// pending range as one aligned write each.
func (a *aligner) drainFullStripes() {
	if !a.pendingValid {
		return
	}
	first := (a.pendingOff + a.stripe - 1) / a.stripe * a.stripe // round up
	for first+a.stripe <= a.pendingEnd {
		// Any unaligned head before the first full stripe must be issued
		// (in order) before the aligned body.
		if a.pendingOff < first {
			a.emit(a.pendingOff, first-a.pendingOff)
			a.pendingOff = first
		}
		a.emit(first, a.stripe)
		a.pendingOff = first + a.stripe
		first += a.stripe
	}
	if a.pendingOff >= a.pendingEnd {
		a.pendingValid = false
	}
}

func (a *aligner) emit(off, size int64) {
	a.out = append(a.out, Op{
		At:       sim.Time(a.pendingLast),
		Kind:     Write,
		Offset:   off,
		Size:     size,
		Priority: a.pendingPri,
	})
}

// flush emits whatever remains in the buffer, split at stripe boundaries
// (the head and tail may be partial).
func (a *aligner) flush() {
	if !a.pendingValid {
		return
	}
	off := a.pendingOff
	for off < a.pendingEnd {
		next := (off/a.stripe + 1) * a.stripe
		if next > a.pendingEnd {
			next = a.pendingEnd
		}
		a.emit(off, next-off)
		off = next
	}
	a.pendingValid = false
}

// alignStream runs an aligner incrementally over a source stream. The
// only state beyond the source is the aligner's single pending range and
// the handful of ops the last push emitted, which Next hands out from
// the aligner's output slice before reusing it for the next refill — so
// steady-state pulls allocate nothing.
type alignStream struct {
	src  Stream
	a    *aligner
	pos  int
	err  error
	done bool
}

func (s *alignStream) Err() error {
	if s.err != nil {
		return s.err
	}
	return Err(s.src)
}

func (s *alignStream) Next() (Op, bool) {
	for {
		if out := s.a.out; s.pos < len(out) {
			op := out[s.pos]
			s.pos++
			return op, true
		}
		if s.done {
			return Op{}, false
		}
		// Every op of the last refill is consumed: empty the output
		// before the next push or the end-of-stream flush appends to it.
		s.pos = 0
		s.a.out = s.a.out[:0]
		op, ok := s.src.Next()
		if !ok {
			s.done = true
			if Err(s.src) != nil {
				// The source failed mid-stream: discard the buffered
				// writes rather than emitting them as a clean ending.
				return Op{}, false
			}
			s.a.flush()
			continue
		}
		if err := s.a.push(op); err != nil {
			// push validates before it emits, so the output is empty.
			s.err = err
			s.done = true
			return Op{}, false
		}
	}
}

// AlignStream applies the merge-and-align pass to a stream, emitting
// transformed operations as soon as the buffer releases them — the
// paper's in-device write buffer as a stream combinator.
func AlignStream(s Stream, stripe int64, opts AlignOptions) (Stream, error) {
	a, err := newAligner(stripe, opts)
	if err != nil {
		return nil, err
	}
	return &alignStream{src: s, a: a}, nil
}
