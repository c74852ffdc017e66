package ring

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// testKey derives a deterministic key stream for distribution tests.
func testKey(i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "key-%d", i)
	return h.Sum64()
}

func TestDeterministicAcrossInputOrder(t *testing.T) {
	// Every instance must derive the same ownership map from the same
	// member set, no matter how its flags order the peers or which
	// member it is.
	a := New("http://a:8080", []string{"http://b:8080", "http://c:8080"}, 64)
	b := New("http://b:8080", []string{"http://c:8080", "http://a:8080"}, 64)
	c := New("http://c:8080", []string{"http://a:8080", "http://b:8080", "http://c:8080"}, 64)
	for i := 0; i < 10_000; i++ {
		k := testKey(i)
		if a.Owner(k) != b.Owner(k) || a.Owner(k) != c.Owner(k) {
			t.Fatalf("key %d: owners disagree: %q %q %q", i, a.Owner(k), b.Owner(k), c.Owner(k))
		}
	}
}

func TestSingleMemberOwnsEverything(t *testing.T) {
	r := New("http://only:8080", nil, 0)
	for i := 0; i < 1000; i++ {
		if r.Owner(testKey(i)) != r.Self() {
			t.Fatalf("single-member ring does not own key %d", i)
		}
	}
}

func TestEmptyAndDuplicateMembers(t *testing.T) {
	r := New("http://a:8080", []string{"", "http://a:8080", "http://b:8080", "http://b:8080"}, 8)
	if got := r.Members(); len(got) != 2 {
		t.Fatalf("members = %v, want the 2 distinct addresses", got)
	}
}

func TestBalance(t *testing.T) {
	// With virtual nodes, ownership over many keys must be roughly
	// uniform: every member within 2x of the fair share in either
	// direction (the default vnode count keeps real spread far tighter;
	// the loose bound keeps the test hash-function-agnostic).
	members := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1"}
	r := New(members[0], members[1:], 0)
	const keys = 50_000
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		counts[r.Owner(testKey(i))]++
	}
	fair := keys / len(members)
	for _, m := range members {
		if counts[m] < fair/2 || counts[m] > fair*2 {
			t.Fatalf("member %s owns %d of %d keys (fair share %d): distribution too skewed: %v",
				m, counts[m], keys, fair, counts)
		}
	}
}

func TestMinimalRemappingOnGrowth(t *testing.T) {
	// Consistent hashing's contract: adding one member to an n-member
	// ring moves only the keys the new member takes over — about
	// 1/(n+1) of them — and a key that moves always moves TO the new
	// member, never between surviving members.
	old := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	grown := append(append([]string(nil), old...), "http://e:1")
	before := New(old[0], old[1:], 0)
	after := New(grown[0], grown[1:], 0)
	const keys = 50_000
	moved := 0
	for i := 0; i < keys; i++ {
		k := testKey(i)
		was, is := before.Owner(k), after.Owner(k)
		if was == is {
			continue
		}
		moved++
		if is != "http://e:1" {
			t.Fatalf("key %d moved %q -> %q: remapping between surviving members", i, was, is)
		}
	}
	// Expect ~1/5 of keys to move; 2/5 bounds hash-function variance.
	if moved == 0 || moved > keys*2/5 {
		t.Fatalf("%d of %d keys moved on growth, want ~%d", moved, keys, keys/5)
	}
}

func TestOwnerWraparound(t *testing.T) {
	r := New("http://a:1", []string{"http://b:1"}, 4)
	// A key past the highest point wraps to the first point's member.
	top := r.points[len(r.points)-1].hash
	if top < ^uint64(0) {
		if got, want := r.Owner(top+1), r.points[0].member; got != want {
			t.Fatalf("wraparound owner %q, want %q", got, want)
		}
	}
	if got, want := r.Owner(r.points[0].hash), r.points[0].member; got != want {
		t.Fatalf("exact-hit owner %q, want %q", got, want)
	}
}

func BenchmarkOwner(b *testing.B) {
	members := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1"}
	r := New(members[0], members[1:], 0)
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = testKey(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Owner(keys[i&1023])
	}
}
