package ftl

import (
	"testing"

	"ossd/internal/flash"
)

// fuzzMaxOps bounds the ops one fuzz input drives.
const fuzzMaxOps = 2000

// fuzzInput encodes a FuzzBackend input: the five header bytes pick the
// scheme, pages per block (2–8), blocks (3–17), overprovisioning (0–30%)
// and informed mode; each op is a kind byte (low two bits: write, read,
// free, clean; the rest: high bits of the page), a low page byte and a
// count byte (a write covers 1–16 pages, cut at the last page).
func fuzzInput(s Scheme, ppb, blocks, opPct int, informed bool, ops ...[3]int) []byte {
	inf := byte(0)
	if informed {
		inf = 1
	}
	data := []byte{byte(s), byte(ppb - 2), byte(blocks - 3), byte(opPct), inf}
	for _, op := range ops {
		kind, lpn, n := op[0], op[1], op[2]
		data = append(data, byte(kind|lpn>>8<<2), byte(lpn), byte(n-1))
	}
	return data
}

func fuzzWrites(lpns ...int) [][3]int {
	ops := make([][3]int, len(lpns))
	for i, lpn := range lpns {
		ops[i] = [3]int{0, lpn, 1}
	}
	return ops
}

// FuzzBackend drives every scheme over small geometries. Properties:
// nothing panics, CheckInvariants holds after every op, Mapped agrees
// with a model of what the host wrote and freed, and no in-range op
// fails — in particular none returns ErrNoSpace.
func FuzzBackend(f *testing.F) {
	// The two block-mapped shapes that used to fail with ErrNoSpace:
	// a page-0 rewrite of a full device with one spare block, and first
	// writes to unmapped blocks while open replacements hold the spares.
	f.Add(fuzzInput(BlockMapped, 4, 8, 0, false, fuzzWrites(append(seqLPNs(0, 28), 0, 8, 9)...)...))
	f.Add(fuzzInput(BlockMapped, 4, 8, 0, false, fuzzWrites(append(seqLPNs(0, 20), 0, 4, 20, 24, 13)...)...))
	for s := PageMapped; s <= HybridLog; s++ {
		var mix [][3]int
		for i := 0; i < 300; i++ {
			mix = append(mix, [3]int{i * 7 % 4, i * 13 % 97, 1 + i*5%11})
		}
		f.Add(fuzzInput(s, 8, 16, 15, true, mix...))
		f.Add(fuzzInput(s, 2, 6, 0, false, mix...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		s := Scheme(data[0] % 3)
		cfg := Config{
			Geom: flash.Geometry{
				PageSize:         4096,
				PagesPerBlock:    2 + int(data[1]%7),
				BlocksPerPackage: 3 + int(data[2]%15),
			},
			Timing:        flash.TimingFor(flash.SLC),
			Overprovision: float64(data[3]%31) / 100,
			Informed:      data[4]&1 == 1,
		}
		b, err := NewBackend(s, cfg)
		if err != nil {
			return // the scheme rejects this geometry
		}
		n := b.LogicalPages()
		live := make([]bool, n)
		ops := data[5:]
		for i := 0; i+2 < len(ops) && i/3 < fuzzMaxOps; i += 3 {
			kind := ops[i] & 3
			lpn := (int(ops[i]>>2)<<8 | int(ops[i+1])) % n
			pages := 1
			switch kind {
			case 0:
				pages = min(1+int(ops[i+2]%16), n-lpn)
				_, err = b.WritePages(lpn, pages)
				for p := lpn; p < lpn+pages; p++ {
					live[p] = true
				}
			case 1:
				_, err = b.ReadPage(lpn)
			case 2:
				err = b.Free(lpn)
				if cfg.Informed {
					live[lpn] = false
				}
			case 3:
				if b.CanClean() {
					_, err = b.CleanOnce()
				}
			}
			if err != nil {
				t.Fatalf("%v %+v: op %d (kind %d, lpn %d, %d pages): %v", s, cfg, i/3, kind, lpn, pages, err)
			}
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("%v %+v: after op %d (kind %d, lpn %d, %d pages): %v", s, cfg, i/3, kind, lpn, pages, err)
			}
			for p := lpn; p < lpn+pages; p++ {
				if b.Mapped(p) != live[p] {
					t.Fatalf("%v %+v: after op %d (kind %d): lpn %d mapped %v, want %v", s, cfg, i/3, kind, p, b.Mapped(p), live[p])
				}
			}
		}
	})
}
