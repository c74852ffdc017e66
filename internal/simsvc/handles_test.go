package simsvc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// testHandle is a handle whose terminal state the test flips.
type testHandle struct {
	name     string
	terminal bool
}

// refHandles is the table's eviction rule written as the plain O(bound)
// walk: each add rewrites order without the oldest terminal handles
// while the table exceeds its bound.
type refHandles struct {
	bound int
	byID  map[string]*testHandle
	order []string
}

func (r *refHandles) add(id string, h *testHandle, evict func(*testHandle) bool) {
	r.byID[id] = h
	r.order = append(r.order, id)
	excess := len(r.byID) - r.bound
	kept := r.order[:0]
	for _, old := range r.order {
		if excess > 0 && evict(r.byID[old]) {
			delete(r.byID, old)
			excess--
			continue
		}
		kept = append(kept, old)
	}
	r.order = kept
}

// TestHandlesMatchReference drives the table and the reference through
// the same adds, over more than three times the bound, with a random
// share of handles still live when added and finishing later, some only
// long after. Each add must evict the same handles in the same order,
// and all() and every ID's lookup must agree, so the head index and the
// compaction change nothing a caller can see.
func TestHandlesMatchReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		const bound, adds = 8, 60
		rng := rand.New(rand.NewSource(seed))
		var got, want []string
		evictInto := func(log *[]string) func(*testHandle) bool {
			return func(h *testHandle) bool {
				if h.terminal {
					*log = append(*log, h.name)
				}
				return h.terminal
			}
		}
		tab := newHandles("job", bound, evictInto(&got))
		ref := &refHandles{bound: bound, byID: map[string]*testHandle{}}
		refEvict := evictInto(&want)
		var live []*testHandle
		for i := 1; i <= adds; i++ {
			// Finish about a quarter of the live handles.
			for _, h := range live {
				if rng.Intn(4) == 0 {
					h.terminal = true
				}
			}
			// Most handles are added terminal; some finish later, and one
			// in ten never does, pinning the handles behind it.
			h := &testHandle{name: fmt.Sprintf("job-%d", i), terminal: true}
			switch rng.Intn(10) {
			case 0:
				h.terminal = false
			case 1, 2, 3:
				h.terminal = false
				live = append(live, h)
			}
			var id string
			tab.add(h, &id)
			if id != h.name {
				t.Fatalf("seed %d: add %d named %q, want %q", seed, i, id, h.name)
			}
			ref.add(id, h, refEvict)
			if len(tab.order) > 2*len(tab.byID) {
				t.Fatalf("seed %d add %d: order holds %d slots for %d handles; it was never compacted", seed, i, len(tab.order), len(tab.byID))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d add %d: evicted %v, want %v", seed, i, got, want)
			}
			var all []string
			for _, h := range tab.all() {
				all = append(all, h.name)
			}
			if !slices.Equal(all, ref.order) {
				t.Fatalf("seed %d add %d: all() = %v, want %v", seed, i, all, ref.order)
			}
			for j := 1; j <= i+1; j++ {
				id := fmt.Sprintf("job-%d", j)
				h, ok := tab.get(id)
				rh, rok := ref.byID[id]
				if ok != rok || h != rh {
					t.Fatalf("seed %d add %d: get(%s) = %v, %v; want %v, %v", seed, i, id, h, ok, rh, rok)
				}
			}
		}
		if len(want) < adds-2*bound {
			t.Fatalf("seed %d: only %d evictions in %d adds; the test lost its point", seed, len(want), adds)
		}
	}
}
