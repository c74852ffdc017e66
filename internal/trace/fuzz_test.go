package trace

import (
	"strings"
	"testing"
)

// FuzzDecode feeds arbitrary text to the v1/v2 trace decoder. Whatever
// the input, decoding must not panic, and every op it emits must be
// valid: a hostile trace gets an error, never an op a device would
// mis-serve.
func FuzzDecode(f *testing.F) {
	for _, seed := range []string{
		"0 R 0 4096\n1000 W 4096 8192\n2000 F 4096 8192\n",
		"# comment\n\n5 W 0 4096 P\n6 R 0 4096 T3\n7 W 0 4096 P T255\n",
		"0 W 6917529027641081856 6917529027641081856\n", // End overflows int64
		"0 W 0 4096 T0\n",
		"-1 R 0 1\n",
		"9223372036854775807 W 9223372036854775806 1\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d := NewDecoder(strings.NewReader(src))
		for {
			op, ok := d.Next()
			if !ok {
				break
			}
			if err := op.Validate(); err != nil {
				t.Fatalf("decoder emitted invalid op %+v: %v", op, err)
			}
		}
	})
}

// FuzzDecodeCSV feeds arbitrary text to the CSV decoder with the MSR
// layout. Decoding must not panic, every emitted op must be valid, and
// arrival times must never go backwards.
func FuzzDecodeCSV(f *testing.F) {
	for _, seed := range []string{
		"Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n" +
			"128166372003061629,hm,0,Read,383496192,32768,0\n" +
			"128166372016382155,web,1,Write,3901480960,4096,0\n",
		// Tick offsets from the first row that overflow int64 ns.
		"0,h,0,Read,0,4096,1\n100000000000000000,h,0,Read,0,4096,1\n",
		"0,h,0,Read,0,4096,1\n-9223372036854775807,h,0,Read,0,4096,1\n",
		"5,h,0,W,6917529027641081856,6917529027641081856,0\n",
		"10,h,0,r,0,512,0\n9,h,0,w,512,512,0\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s := DecodeCSV(strings.NewReader(src), MSRLayout())
		var prev Op
		for n := 0; ; n++ {
			op, ok := s.Next()
			if !ok {
				break
			}
			if err := op.Validate(); err != nil {
				t.Fatalf("decoder emitted invalid op %+v: %v", op, err)
			}
			if n > 0 && op.At < prev.At {
				t.Fatalf("arrival went backwards: %v after %v", op.At, prev.At)
			}
			prev = op
		}
	})
}
