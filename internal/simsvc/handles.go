package simsvc

import (
	"context"
	"fmt"
	"sync"
)

// handles is the table of retained handles behind both /jobs and
// /campaigns. It names each handle ("job-1", "campaign-1", …), keeps
// them in submission order, and bounds itself: every add evicts the
// oldest terminal handles while the table holds more than its bound.
// Live handles are never evicted, so the table can exceed the bound by
// the number of live ones. An evicted handle stays valid for whoever
// still holds it; only its ID stops resolving.
type handles[H any] struct {
	prefix string
	bound  int
	// evict reports whether h is terminal and, if it is, marks h evicted
	// and wakes every tail attached to it, under h's own lock. It runs
	// with mu held (table before handle is the lock order), so it must
	// not call back into the table.
	evict func(H) bool

	mu   sync.Mutex
	seq  int64
	byID map[string]H
	// order holds the retained IDs in submission order, from head on.
	// An evicted ID is blanked where it stands; head steps over a blank
	// prefix, and the slice is compacted once it holds more blanks than
	// IDs, so an eviction costs O(1) amortized.
	order  []string
	head   int
	blanks int
}

// newHandles builds a table that names its handles prefix-1, prefix-2,
// … and keeps at most bound of them, evicting only terminal ones.
func newHandles[H any](prefix string, bound int, evict func(H) bool) *handles[H] {
	return &handles[H]{prefix: prefix, bound: bound, evict: evict, byID: map[string]H{}}
}

// add names h, storing its ID through id before h becomes visible to
// any other caller, inserts it, and evicts past the bound.
func (t *handles[H]) add(h H, id *string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	*id = fmt.Sprintf("%s-%d", t.prefix, t.seq)
	t.byID[*id] = h
	t.order = append(t.order, *id)
	for i, excess := t.head, len(t.byID)-t.bound; excess > 0 && i < len(t.order); i++ {
		if old := t.order[i]; old != "" && t.evict(t.byID[old]) {
			delete(t.byID, old)
			t.order[i] = ""
			t.blanks++
			excess--
		}
	}
	for t.head < len(t.order) && t.order[t.head] == "" {
		t.head++
	}
	if t.blanks > len(t.byID) {
		live := t.order[:0]
		for _, id := range t.order[t.head:] {
			if id != "" {
				live = append(live, id)
			}
		}
		clear(t.order[len(live):])
		t.order, t.head, t.blanks = live, 0, 0
	}
}

// get looks a handle up by ID.
func (t *handles[H]) get(id string) (H, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.byID[id]
	return h, ok
}

// all snapshots the retained handles in submission order.
func (t *handles[H]) all() []H {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]H, 0, len(t.byID))
	for _, id := range t.order[t.head:] {
		if id != "" {
			out = append(out, t.byID[id])
		}
	}
	return out
}

// waitUntil blocks until done holds or ctx ends, and returns ctx's
// error in the latter case. The caller holds c.L, as for c.Wait, and
// done is evaluated under it. The wait wakes on every c.Broadcast and
// once more when ctx ends, so a waiter neither spins nor outlives its
// request.
func waitUntil(ctx context.Context, c *sync.Cond, done func() bool) error {
	stop := context.AfterFunc(ctx, func() {
		c.L.Lock()
		c.Broadcast()
		c.L.Unlock()
	})
	defer stop()
	for !done() && ctx.Err() == nil {
		c.Wait()
	}
	return ctx.Err()
}
