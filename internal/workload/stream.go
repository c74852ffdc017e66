package workload

import "ossd/internal/trace"

// stepStream adapts a step-at-a-time generator to a trace.Stream. Each
// call to step runs one unit of generation (one synthetic op, one
// Postmark transaction, one OLTP iteration), emitting zero or more
// operations; it returns false when the workload is exhausted. The
// stream buffers only one step's output, so memory is bounded by the
// largest single step, not the workload length.
type stepStream struct {
	buf  []trace.Op
	pos  int
	step func(emit func(trace.Op)) bool
	// emit appends to buf; it is bound on the first step and handed to
	// every step after, so stepping allocates no closure.
	emit func(trace.Op)
}

func (s *stepStream) Next() (trace.Op, bool) {
	for s.pos >= len(s.buf) {
		if s.step == nil {
			return trace.Op{}, false
		}
		if s.emit == nil {
			s.emit = func(o trace.Op) { s.buf = append(s.buf, o) }
		}
		s.buf = s.buf[:0]
		s.pos = 0
		if !s.step(s.emit) {
			s.step = nil
		}
	}
	op := s.buf[s.pos]
	s.pos++
	return op, true
}
