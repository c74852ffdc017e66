package ftl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"ossd/internal/flash"
	"ossd/internal/sim"
)

// fingerprintOps is the length of each fingerprint run.
const fingerprintOps = 20000

// schemeFingerprints pin the exact per-op behaviour of every scheme:
// each op's duration and error, then the final Stats and Wear. The
// golden reports drive the block-mapped and hybrid FTLs with writes
// only; these hashes also cover their reads, informed frees and
// cleaning passes, so a refactor that reorders any flash call or stat
// update changes a hash.
var schemeFingerprints = map[string]string{
	"page-mapped/default":   "6dbe2a020c0ea532d5c5bca1100c628e806e02c7f19facf4a9b7391b7715ba4d",
	"page-mapped/informed":  "6c3ca66e47f9bffba01f48b4e36d02ecf58028cfa0e16b255713b27aa9d1dc18",
	"block-mapped/default":  "903e2198d5fd7ae41658d3915a8af55e0223fa0ce6b343e4fcd0cbea0af16f46",
	"block-mapped/informed": "b163ecf8fc505d465996ca37715f6e0f838831c4cb42b6ec5e4facf3ab2f4580",
	"hybrid-log/default":    "b6ede263bcca9a0c7277480530b55ea327a0ba022901982998898bb3c89ca694",
	"hybrid-log/informed":   "1351c2f0e7d3bd54a68e24869aafb2704ae8f1f181a942bd3c86600758510a09",
}

// fingerprintConfig leaves six spare blocks under every scheme, enough
// that no op in the mix may fail.
func fingerprintConfig(informed bool) Config {
	return Config{
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 8, BlocksPerPackage: 40},
		Timing:        flash.TimingFor(flash.SLC),
		Overprovision: 0.15,
		Informed:      informed,
	}
}

// fingerprint drives a seeded mix of writes, reads, frees and cleans,
// half of them continuing a sequential cursor and half at random, and
// hashes everything the backend reports. Any op error fails the test,
// so each op contributes only its duration.
func fingerprint(t *testing.T, s Scheme, informed bool) string {
	t.Helper()
	b, err := NewBackend(s, fingerprintConfig(informed))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(s)*2 + 11))
	n := b.LogicalPages()
	h := sha256.New()
	var buf [8]byte
	cursor := 0
	for i := 0; i < fingerprintOps; i++ {
		lpn := rng.Intn(n)
		if rng.Intn(2) == 0 {
			lpn = cursor
			cursor = (cursor + 1) % n
		}
		var d sim.Time
		switch r := rng.Intn(20); {
		case r < 10:
			d, err = b.WritePages(lpn, 1)
		case r < 15:
			d, err = b.ReadPage(lpn)
		case r < 18:
			err = b.Free(lpn)
		default:
			if b.CanClean() {
				d, err = b.CleanOnce()
			}
		}
		if err != nil {
			t.Fatalf("op %d (lpn %d): %v", i, lpn, err)
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(d))
		h.Write(buf[:])
	}
	fmt.Fprintf(h, "%+v %+v", b.Stats(), b.Wear())
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSchemeFingerprints(t *testing.T) {
	for _, s := range allSchemes() {
		for _, informed := range []bool{false, true} {
			name := s.String() + "/default"
			if informed {
				name = s.String() + "/informed"
			}
			t.Run(name, func(t *testing.T) {
				got := fingerprint(t, s, informed)
				if want := schemeFingerprints[name]; got != want {
					t.Errorf("fingerprint %s, want %s", got, want)
				}
			})
		}
	}
}
