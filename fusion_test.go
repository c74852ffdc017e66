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

// fusionGuarded are the commands whose arm64 builds must hold no fused
// instruction in a function of this module: the report generator, the
// device CLI and the simulation service.
var fusionGuarded = []string{"./cmd/repro", "./cmd/ssdsim", "./cmd/simd"}

// TestNoFusedFloatOps guards the reports' bit-for-bit promise across
// architectures. Go lets a compiler fuse x*y + z into one instruction
// that rounds once, unless an explicit float64(…) conversion rounds the
// product; amd64 never fuses at the default GOAMD64, arm64 does. The test
// cross-builds each guarded command for arm64, disassembles it and fails
// on any fused instruction in a function of this module, naming its
// source line. A toolchain that cannot cross-build fails the test too.
//
// The standard-library routines the simulation calls (math/rand's
// ExpFloat64 and Zipf, math.Log, Pow and Cos) still fuse on arm64; they
// are outside this module's functions and outside the guard.
func TestNoFusedFloatOps(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go tool on PATH: %v", err)
	}
	dir := t.TempDir()
	for _, pkg := range fusionGuarded {
		bin := filepath.Join(dir, filepath.Base(pkg)+"-arm64")
		build := exec.Command(goTool, "build", "-o", bin, pkg)
		build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("cross-building %s for arm64: %v\n%s", pkg, err, out)
		}
		out, err := exec.Command(goTool, "tool", "objdump", "-s", "^ossd/", bin).Output()
		if err != nil {
			t.Fatalf("disassembling the arm64 %s: %v", pkg, err)
		}
		if funcs := scanFused(t, pkg, out); funcs < 100 {
			t.Fatalf("the %s disassembly lists %d functions of this module; the guard is looking at the wrong binary", pkg, funcs)
		}
	}
}

// scanFused reports every fused instruction in the disassembly of pkg
// and returns how many functions it lists.
func scanFused(t *testing.T, pkg string, out []byte) int {
	t.Helper()
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
				t.Errorf("%s: %s: %s in %s; round the product with float64(…)", pkg, f[0], strings.Join(f[3:], " "), fn)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return funcs
}
