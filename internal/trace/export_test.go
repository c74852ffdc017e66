package trace

import "io"

// The slice forms of the stream API, kept for the tests: each is a thin
// adapter the stream combinators replace in non-test code.

// Collect drains a stream into a slice. It materializes the whole
// stream, so it serves the tests' small traces only.
func Collect(s Stream) []Op {
	var ops []Op
	for op, ok := s.Next(); ok; op, ok = s.Next() {
		ops = append(ops, op)
	}
	return ops
}

// Align transforms a whole trace with default merge bounds.
func Align(ops []Op, stripe int64) ([]Op, error) {
	return AlignWith(ops, stripe, AlignOptions{})
}

// AlignWith runs ops through one aligner directly, the reference the
// streaming AlignStream is checked against.
func AlignWith(ops []Op, stripe int64, opts AlignOptions) ([]Op, error) {
	a, err := newAligner(stripe, opts)
	if err != nil {
		return nil, err
	}
	for _, o := range ops {
		if err := a.push(o); err != nil {
			return nil, err
		}
	}
	a.flush()
	return a.out, nil
}

// Summarize scans a trace.
func Summarize(ops []Op) Stats {
	var s Stats
	for _, o := range ops {
		s.add(o)
	}
	return s
}

// Encode writes ops in the text format.
func Encode(w io.Writer, ops []Op) error {
	enc := NewEncoder(w)
	if _, err := enc.Copy(FromSlice(ops)); err != nil {
		return err
	}
	return enc.Flush()
}

// Decode parses the text format produced by Encode.
func Decode(r io.Reader) ([]Op, error) {
	d := NewDecoder(r)
	ops := Collect(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}
