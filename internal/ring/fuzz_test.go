package ring

import (
	"slices"
	"strings"
	"testing"
)

// FuzzRing builds rings from arbitrary member lists and checks the
// ownership contract the cache tier relies on: every key is owned by a
// member (or by "" on an empty ring); ownership ignores peer order,
// duplicate peers, a repeated self, and which member is self; and adding
// one member moves keys only to that member.
func FuzzRing(f *testing.F) {
	f.Add("http://a:8080", "http://b:8080\nhttp://c:8080", uint64(0), uint8(0))
	f.Add("http://a:8080", "http://a:8080\n\nhttp://b:8080\nhttp://b:8080", uint64(1<<63), uint8(3))
	f.Add("", "", uint64(42), uint8(1))
	f.Add("", "\n\n", uint64(1<<64-1), uint8(200))
	f.Add("x", "X\nx \n x", uint64(7), uint8(16))
	f.Fuzz(func(t *testing.T, self, peerList string, key uint64, vn uint8) {
		peers := strings.Split(peerList, "\n")
		if len(peers) > 16 {
			peers = peers[:16]
		}
		vnodes := int(vn % 32) // 0 selects DefaultVirtualNodes
		r := New(self, peers, vnodes)
		members := r.Members()
		keys := []uint64{key, ^key, 0, 1<<64 - 1}
		for i := uint64(1); i <= 64; i++ {
			keys = append(keys, key+i*0x9e3779b97f4a7c15)
		}

		for _, k := range keys {
			o := r.Owner(k)
			if len(members) == 0 {
				if o != "" {
					t.Fatalf("empty ring owns key %d: %q", k, o)
				}
			} else if !slices.Contains(members, o) {
				t.Fatalf("owner %q of key %d is not a member of %q", o, k, members)
			}
		}

		// Same member set, spelled differently: reversed peers, every
		// peer twice, self repeated among the peers, and another member
		// as self.
		reversed := slices.Clone(peers)
		slices.Reverse(reversed)
		variants := []*Ring{
			New(self, reversed, vnodes),
			New(self, append(slices.Clone(peers), peers...), vnodes),
			New(self, append([]string{self}, peers...), vnodes),
		}
		if len(members) > 0 {
			other := members[len(members)-1]
			variants = append(variants, New(other, append([]string{self}, peers...), vnodes))
		}
		for vi, v := range variants {
			if !slices.Equal(v.Members(), members) {
				t.Fatalf("variant %d: members %q, want %q", vi, v.Members(), members)
			}
			for _, k := range keys {
				if a, b := r.Owner(k), v.Owner(k); a != b {
					t.Fatalf("variant %d: key %d owned by %q, want %q", vi, k, b, a)
				}
			}
		}

		// One new member takes keys only for itself.
		added := "+" + strings.Join(members, "+")
		grown := New(self, append(slices.Clone(peers), added), vnodes)
		for _, k := range keys {
			before, after := r.Owner(k), grown.Owner(k)
			if after != before && after != added {
				t.Fatalf("adding %q moved key %d from %q to %q", added, k, before, after)
			}
		}
	})
}
