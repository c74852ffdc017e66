package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"ossd/internal/experiments"
	"ossd/internal/runner"
)

// reportBytes regenerates the full text report exactly as `repro -seed
// N` writes it to its output, with each experiment's internal fan-out
// running on `workers` workers.
func reportBytes(t *testing.T, seed int64, workers int) []byte {
	t.Helper()
	selected := experiments.Catalog()
	specs := make([]runner.Spec[experiments.Result], len(selected))
	for i, e := range selected {
		e := e
		specs[i] = runner.Spec[experiments.Result]{
			Name: e.ID,
			Seed: seed,
			Run:  func() (experiments.Result, error) { return e.Run(seed, workers) },
		}
	}
	outcomes := runner.RunAll(specs, runner.Options{Workers: runner.DefaultWorkers()})
	var buf bytes.Buffer
	if failed := writeText(&buf, seed, selected, outcomes); failed {
		t.Fatalf("seed %d: an experiment failed:\n%s", seed, buf.String())
	}
	return buf.Bytes()
}

// maxDiffLines bounds how many differing lines reportDiff prints.
const maxDiffLines = 5

// reportDiff describes where got first departs from want: the "== id"
// header of the experiment section the first differing line falls in,
// then up to maxDiffLines differing lines from there on. It returns ""
// when the reports are byte-identical.
func reportDiff(want, got []byte) string {
	if bytes.Equal(want, got) {
		return ""
	}
	wl := strings.SplitAfter(string(want), "\n")
	gl := strings.SplitAfter(string(got), "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of report>"
	}
	first := 0
	for line(wl, first) == line(gl, first) {
		first++
	}
	section := "report header"
	for i := min(first, len(wl)-1); i >= 0; i-- {
		if strings.HasPrefix(wl[i], "== ") {
			section = strings.TrimSpace(wl[i])
			break
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first difference in section %q:\n", section)
	for i, shown := first, 0; shown < maxDiffLines && i < max(len(wl), len(gl)); i++ {
		if w, g := line(wl, i), line(gl, i); w != g {
			fmt.Fprintf(&b, "  line %d\n    want: %q\n     got: %q\n", i+1, w, g)
			shown++
		}
	}
	return b.String()
}

// TestReportByteIdentity regenerates the whole evaluation for seeds 1
// and 7 at worker counts 1 and 4 and requires every byte to match the
// committed testdata/report-seed{1,7}.txt: a refactor that claims
// behavioral equivalence must leave them untouched, and the worker
// pools may never change a report byte. A change that deliberately
// alters simulated behavior or report formatting regenerates them with
// `go run ./cmd/repro -seed N -o cmd/repro/testdata/report-seedN.txt`,
// so the new bytes show up as a reviewed diff.
func TestReportByteIdentity(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		want, err := os.ReadFile(fmt.Sprintf("testdata/report-seed%d.txt", seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed%d/workers%d", seed, workers), func(t *testing.T) {
				t.Parallel()
				if diff := reportDiff(want, reportBytes(t, seed, workers)); diff != "" {
					t.Errorf("report changed (the simulation's observable behavior changed); %s", diff)
				}
			})
		}
	}
}

// TestReportDiffNamesSection pins the failure message: a one-byte
// change is reported under the "== id" header of its experiment.
func TestReportDiffNamesSection(t *testing.T) {
	want := []byte("title\nseed=1\n\n== a (first)\nx 1\n\n== b (second)\ny 2\nz 3\n")
	if d := reportDiff(want, want); d != "" {
		t.Fatalf("identical reports: %q", d)
	}
	got := bytes.Replace(want, []byte("z 3"), []byte("z 4"), 1)
	d := reportDiff(want, got)
	if !strings.Contains(d, `"== b (second)"`) || !strings.Contains(d, "line 9") {
		t.Fatalf("diff does not name section b and line 9:\n%s", d)
	}
	if d := reportDiff(want, want[:len(want)-1]); !strings.Contains(d, `"== b (second)"`) {
		t.Fatalf("missing trailing newline not placed in section b:\n%s", d)
	}
	if d := reportDiff(want, []byte("title\nseed=7\n")); !strings.Contains(d, `"report header"`) {
		t.Fatalf("header change not named:\n%s", d)
	}
}
