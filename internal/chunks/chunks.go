// Package chunks provides Slice, a growable table stored in fixed-size
// chunks: growing it never copies or discards storage.
package chunks

// bits sizes the chunks: Size entries each.
const bits = 8

// Size is the number of entries in one chunk.
const Size = 1 << bits

// Slice is a slice stored in fixed-size chunks. Growing it allocates one
// more chunk and never copies or discards the ones it has, so an entry's
// address is stable for the Slice's life, and entries past Len stay
// allocated for reuse. Tables that fill from empty on every run (a
// device's request records and pool, a file system's file table) grow
// this way without leaving every outgrown array to the collector, and
// cost nothing before their first entry. The zero value is empty and
// ready to use.
type Slice[E any] struct {
	c [][]E
	n int
}

// Len returns the number of entries.
func (s *Slice[E]) Len() int { return s.n }

// Push appends e.
func (s *Slice[E]) Push(e E) {
	if s.n>>bits == len(s.c) {
		s.c = append(s.c, make([]E, Size))
	}
	*s.At(s.n) = e
	s.n++
}

// Pop removes the last entry and returns it. Its slot keeps the value
// until a Push overwrites it. The Slice must not be empty.
func (s *Slice[E]) Pop() E {
	s.n--
	return *s.At(s.n)
}

// At returns entry i, for i in [0, Len).
func (s *Slice[E]) At(i int) *E { return &s.c[i>>bits][i&(Size-1)] }
