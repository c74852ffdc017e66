// Command benchjson turns `go test -bench -benchmem` output into a JSON
// ledger stamped with the CPU count, the Go version and the commit, and
// optionally checks it against a committed ledger.
//
//	go test -bench . -benchmem -run '^$' . | go run ./cmd/benchjson > BENCH_x.json
//	go run ./cmd/benchjson -baseline BENCH_layers.json < bench.txt > BENCH_x.json
//
// With -baseline, every benchmark present in both the input and the
// baseline must report the same allocs/op as the baseline; any change,
// up or down, fails the command (exit 1) after the JSON is written, so
// the baseline is refreshed in the same change that moves it. ns/op is
// printed next to the baseline's on standard error, as information only:
// timings move with the machine. Benchmarks are matched by name without
// the -GOMAXPROCS suffix.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Ledger is one benchmark run.
type Ledger struct {
	NProc      int         `json:"nproc"`
	Go         string      `json:"go"`
	Commit     string      `json:"commit"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one result line.
type Benchmark struct {
	// Name omits the -GOMAXPROCS suffix, which Procs carries.
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds any further b.ReportMetric values by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	baseline := flag.String("baseline", "", "ledger to compare allocs/op against")
	commit := flag.String("commit", "", "commit to stamp (default: git describe --always --dirty)")
	flag.Parse()

	led, err := parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(led.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines on standard input"))
	}
	led.NProc, led.Go, led.Commit = runtime.NumCPU(), runtime.Version(), *commit
	if led.Commit == "" {
		led.Commit = describe()
	}
	out, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", out)
	if *baseline == "" {
		return
	}
	data, err := os.ReadFile(*baseline)
	if err != nil {
		fatal(err)
	}
	var base Ledger
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("%s: %w", *baseline, err))
	}
	if diffs := compare(os.Stderr, base, led); diffs > 0 {
		fatal(fmt.Errorf("%d benchmarks changed allocs/op against %s", diffs, *baseline))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// describe names the checked-out commit, or "unknown" outside git.
func describe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// parse reads benchmark result lines ("BenchmarkX-N iters v unit ...")
// and the "cpu:" header; every other line is ignored.
func parse(r io.Reader) (Ledger, error) {
	var led Ledger
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			led.CPU = strings.TrimSpace(cpu)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue // a benchmark's own log line, not a result
		}
		b := Benchmark{Name: f[0], Procs: 1, Iterations: iters}
		if i := strings.LastIndexByte(f[0], '-'); i > 0 {
			if p, err := strconv.Atoi(f[0][i+1:]); err == nil {
				b.Name, b.Procs = f[0][:i], p
			}
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return led, fmt.Errorf("%s: bad value %q", f[0], f[i])
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		led.Benchmarks = append(led.Benchmarks, b)
	}
	return led, sc.Err()
}

// compare reports each benchmark of cur that base also holds, and
// returns how many changed allocs/op. A name that repeats (go test
// -count) compares every repetition.
func compare(w io.Writer, base, cur Ledger) int {
	want := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		want[b.Name] = b
	}
	diffs, matched := 0, 0
	for _, b := range cur.Benchmarks {
		ref, ok := want[b.Name]
		if !ok {
			fmt.Fprintf(w, "%-45s not in baseline\n", b.Name)
			continue
		}
		matched++
		verdict := "ok"
		if b.AllocsPerOp != ref.AllocsPerOp {
			verdict = fmt.Sprintf("ALLOCS CHANGED (baseline %g)", ref.AllocsPerOp)
			diffs++
		}
		fmt.Fprintf(w, "%-45s %12.1f ns/op (baseline %.1f) %g allocs/op %s\n",
			b.Name, b.NsPerOp, ref.NsPerOp, b.AllocsPerOp, verdict)
	}
	if matched == 0 {
		fmt.Fprintln(w, "no benchmark matched the baseline")
		diffs++
	}
	return diffs
}
