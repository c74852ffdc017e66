package ossd

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// fusedOps are the mnemonic prefixes of arm64's fused multiply-add
// family (FMADDD, FMSUBS, FNMADDD, ...): one instruction, one rounding.
var fusedOps = []string{"FMADD", "FMSUB", "FNMADD", "FNMSUB"}

// TestNoFusedFloatOps guards the reports' bit-for-bit promise across
// architectures. Go lets a compiler fuse x*y + z into one instruction
// that rounds once, unless an explicit float64(…) conversion rounds the
// product; amd64 never fuses at the default GOAMD64, arm64 does. The test
// cross-builds cmd/repro for arm64, disassembles it and fails on any
// fused instruction in a function of this module, naming its source
// line. A toolchain that cannot cross-build fails the test too.
//
// The standard-library routines the simulation calls (math/rand's
// ExpFloat64 and Zipf, math.Log, Pow and Cos) still fuse on arm64; they
// are outside this module's functions and outside the guard.
func TestNoFusedFloatOps(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go tool on PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "repro-arm64")
	build := exec.Command(goTool, "build", "-o", bin, "./cmd/repro")
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("cross-building cmd/repro for arm64: %v\n%s", err, out)
	}
	out, err := exec.Command(goTool, "tool", "objdump", "-s", "^ossd/", bin).Output()
	if err != nil {
		t.Fatalf("disassembling the arm64 cmd/repro: %v", err)
	}
	var fn string
	funcs := 0
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "TEXT "); ok {
			fn, _, _ = strings.Cut(name, "(SB)")
			funcs++
			continue
		}
		// An instruction line: file:line, address, encoding, mnemonic,
		// operands.
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		for _, op := range fusedOps {
			if strings.HasPrefix(f[3], op) {
				t.Errorf("%s: %s in %s; round the product with float64(…)", f[0], strings.Join(f[3:], " "), fn)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if funcs < 100 {
		t.Fatalf("the disassembly lists %d functions of this module; the guard is looking at the wrong binary", funcs)
	}
}
