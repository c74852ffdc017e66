package chunks

import "testing"

// TestSliceAcrossChunks pushes and pops across several chunk boundaries:
// every entry reads back at its index, an entry's address survives
// growth, and refilling after a drain allocates nothing.
func TestSliceAcrossChunks(t *testing.T) {
	const n = 3*Size + 5
	var s Slice[int]
	first := (*int)(nil)
	fill := func() {
		for i := range n {
			s.Push(i)
			if i == 0 {
				first = s.At(0)
			}
		}
	}
	fill()
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := range n {
		if got := *s.At(i); got != i {
			t.Fatalf("At(%d) = %d", i, got)
		}
	}
	if s.At(0) != first {
		t.Fatal("growth moved entry 0")
	}
	for i := n - 1; i >= 0; i-- {
		if got := s.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		fill()
		for s.Len() > 0 {
			s.Pop()
		}
	}); allocs != 0 {
		t.Fatalf("refilling a drained Slice allocates %.1f times, want 0", allocs)
	}
}
