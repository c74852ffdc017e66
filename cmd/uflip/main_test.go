package main

import "testing"

// TestBytesLabel pins the alignment probe's row labels: a sub-KiB shift
// prints in bytes, so it cannot read as the aligned row's +0KiB.
func TestBytesLabel(t *testing.T) {
	for n, want := range map[int64]string{0: "0KiB", 512: "512B", 1024: "1KiB", 1536: "1536B", 4096: "4KiB"} {
		if got := bytesLabel(n); got != want {
			t.Errorf("bytesLabel(%d) = %q, want %q", n, got, want)
		}
	}
}
