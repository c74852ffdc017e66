package trace_test

import (
	"fmt"
	"os"

	"ossd/internal/trace"
)

// ExampleAlign shows the §3.4 merge-and-align pass: eight contiguous
// 4 KB writes become one stripe-aligned 32 KB write.
func ExampleAlign() {
	var ops []trace.Op
	for i := int64(0); i < 8; i++ {
		ops = append(ops, trace.Op{At: 0, Kind: trace.Write, Offset: i * 4096, Size: 4096})
	}
	s, err := trace.AlignStream(trace.FromSlice(ops), 32<<10, trace.AlignOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	var aligned []trace.Op
	for op, ok := s.Next(); ok; op, ok = s.Next() {
		aligned = append(aligned, op)
	}
	fmt.Printf("%d ops in, %d out: %v bytes at offset %d\n",
		len(ops), len(aligned), aligned[0].Size, aligned[0].Offset)
	// Output: 8 ops in, 1 out: 32768 bytes at offset 0
}

// ExampleStream shows the pull-based workload pipeline: a stream built
// from combinators, transformed by the streaming aligner, and drained at
// constant memory while Tally gathers statistics.
func ExampleStream() {
	var ops []trace.Op
	for i := int64(0); i < 16; i++ {
		ops = append(ops, trace.Op{Kind: trace.Write, Offset: i * 4096, Size: 4096})
	}
	s, err := trace.AlignStream(trace.Limit(trace.FromSlice(ops), 8), 32<<10, trace.AlignOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	var st trace.Stats
	var out []trace.Op
	tally := trace.Tally(s, &st)
	for op, ok := tally.Next(); ok; op, ok = tally.Next() {
		out = append(out, op)
	}
	fmt.Printf("%d ops out, %d bytes written\n", st.Ops, st.WriteBytes)
	fmt.Printf("first: %v bytes at offset %d\n", out[0].Size, out[0].Offset)
	// Output:
	// 1 ops out, 32768 bytes written
	// first: 32768 bytes at offset 0
}

// ExampleEncode shows the text trace format.
func ExampleEncode() {
	ops := []trace.Op{
		{At: 1000, Kind: trace.Write, Offset: 4096, Size: 8192},
		{At: 2000, Kind: trace.Free, Offset: 4096, Size: 8192, Priority: true},
	}
	enc := trace.NewEncoder(os.Stdout)
	if _, err := enc.Copy(trace.FromSlice(ops)); err != nil {
		fmt.Println(err)
	}
	enc.Flush()
	// Output:
	// 1000 W 4096 8192
	// 2000 F 4096 8192 P
}
