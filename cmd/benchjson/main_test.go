package main

import (
	"io"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: ossd
cpu: Example CPU @ 2.00GHz
BenchmarkDispatchSWTF/1k-2   	 5725357	       244.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkAlignerThroughput-2 	    1000	   1200000 ns/op	  160000 B/op	       5 allocs/op
BenchmarkTable5InformedCleaning-2 	 8	 127683449 ns/op	 0.5035 rel-clean-time	 11710708 B/op	 89891 allocs/op
BenchmarkNoProcs 	 10	 5.5 ns/op
PASS
ok  	ossd	71.530s
`

func TestParse(t *testing.T) {
	led, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if led.CPU != "Example CPU @ 2.00GHz" || len(led.Benchmarks) != 4 {
		t.Fatalf("cpu %q, %d benchmarks", led.CPU, len(led.Benchmarks))
	}
	d, a, t5, np := led.Benchmarks[0], led.Benchmarks[1], led.Benchmarks[2], led.Benchmarks[3]
	if d.Name != "BenchmarkDispatchSWTF/1k" || d.Procs != 2 || d.Iterations != 5725357 || d.NsPerOp != 244.6 || d.AllocsPerOp != 0 {
		t.Errorf("dispatch = %+v", d)
	}
	if a.BytesPerOp != 160000 || a.AllocsPerOp != 5 {
		t.Errorf("aligner = %+v", a)
	}
	if t5.Metrics["rel-clean-time"] != 0.5035 || t5.AllocsPerOp != 89891 {
		t.Errorf("table5 = %+v", t5)
	}
	if np.Name != "BenchmarkNoProcs" || np.Procs != 1 {
		t.Errorf("no-procs = %+v", np)
	}
}

func TestCompareAllocs(t *testing.T) {
	base, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := parse(strings.NewReader(sample))
	if n := compare(io.Discard, base, cur); n != 0 {
		t.Fatalf("identical ledgers: %d diffs", n)
	}
	// Timing moves freely; allocs/op must not, in either direction.
	cur.Benchmarks[0].NsPerOp *= 3
	if n := compare(io.Discard, base, cur); n != 0 {
		t.Fatalf("ns/op change counted as %d diffs", n)
	}
	cur.Benchmarks[1].AllocsPerOp = 4
	if n := compare(io.Discard, base, cur); n != 1 {
		t.Fatalf("one allocs/op drop: %d diffs, want 1", n)
	}
	// A run that matches nothing in the baseline fails too.
	other, _ := parse(strings.NewReader("BenchmarkElse-2 10 1 ns/op 0 B/op 0 allocs/op\n"))
	if n := compare(io.Discard, base, other); n == 0 {
		t.Fatal("a run matching no baselined benchmark passed")
	}
}
