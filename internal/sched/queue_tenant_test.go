package sched

import (
	"math/rand"
	"testing"

	"ossd/internal/sim"
)

// TestQueueFairSingleTenantEquivalence is the tenancy refactor's
// determinism contract: with exactly one tenant class in play, weighted
// DRR degenerates to the base policy, so an engaged fair-share layer
// must reproduce the legacy dispatch sequence op-for-op — both
// policies, randomized workloads, whether the traffic is tagged or
// rides the tenant-0 default.
func TestQueueFairSingleTenantEquivalence(t *testing.T) {
	const elements = 4
	for _, policy := range []Policy{FCFS, SWTF} {
		for _, tenant := range []uint8{0, 5} {
			t.Run(policy.String(), func(t *testing.T) {
				for trial := 0; trial < 10; trial++ {
					rng := rand.New(rand.NewSource(int64(trial)*100 + int64(policy) + int64(tenant)))
					fair := newQueue(policy, elements)
					fair.SetTenantWeight(tenant, 2.5)
					plain := newQueue(policy, elements)
					elemsOf := map[int][]int{}
					now := sim.Time(0)
					id := 0
					for step := 0; step < 300; step++ {
						for n := rng.Intn(4); n > 0; n-- {
							k := 1 + rng.Intn(3)
							perm := rng.Perm(elements)[:k]
							elemsOf[id] = perm
							push(fair, perm, id, tenant, int64(4096*(1+id%8)))
							push(plain, perm, id, 0, 1)
							id++
						}
						for {
							got, ok := popID(fair, now)
							want, wok := popID(plain, now)
							if ok != wok {
								t.Fatalf("trial %d step %d: fair ok=%v plain ok=%v", trial, step, ok, wok)
							}
							if !ok {
								break
							}
							if got != want {
								t.Fatalf("trial %d step %d: fair dispatched %v, plain %v", trial, step, got, want)
							}
							for _, e := range elemsOf[got] {
								until := now + serviceTime(got, e)
								fair.SetBusy(e, until)
								plain.SetBusy(e, until)
							}
						}
						now += sim.Time(1 + rng.Intn(20))
					}
					if fair.Len() != plain.Len() {
						t.Fatalf("trial %d: fair len %d, plain %d", trial, fair.Len(), plain.Len())
					}
				}
			})
		}
	}
}

// TestQueueFairShareBytes pins the DRR arithmetic: two tenants with a
// continuously backlogged single element and weights 1:3 split the
// dispatched bytes 1:3 (within one quantum of slack).
func TestQueueFairShareBytes(t *testing.T) {
	for _, policy := range []Policy{FCFS, SWTF} {
		t.Run(policy.String(), func(t *testing.T) {
			q := newQueue(policy, 1)
			q.SetTenantWeight(1, 1)
			q.SetTenantWeight(2, 3)
			const opBytes = 8 << 10
			elems := []int{0}
			backlog := func(tenant uint8, n int) {
				for i := 0; i < n; i++ {
					push(q, elems, int(tenant), tenant, opBytes)
				}
			}
			backlog(1, 4096)
			backlog(2, 4096)
			bytesOf := map[int]int64{}
			now := sim.Time(0)
			for i := 0; i < 4000; i++ {
				id, ok := popID(q, now)
				if !ok {
					t.Fatalf("pop %d: backlogged queue stalled", i)
				}
				bytesOf[id] += opBytes
				q.SetBusy(0, now+1)
				now++
			}
			ratio := float64(bytesOf[2]) / float64(bytesOf[1])
			if ratio < 2.8 || ratio > 3.2 {
				t.Fatalf("dispatched bytes tenant2/tenant1 = %.2f (t1=%d t2=%d), want ~3",
					ratio, bytesOf[1], bytesOf[2])
			}
		})
	}
}

// TestQueueFairWorkConserving: fair-share never idles the device to
// honor a share — when one tenant's head is blocked on a busy element,
// another tenant's dispatchable work proceeds regardless of deficits.
func TestQueueFairWorkConserving(t *testing.T) {
	const heavy, light = 1, 2
	q := newQueue(SWTF, 2)
	q.SetTenantWeight(1, 100) // heavy tenant, but blocked below
	q.SetTenantWeight(2, 1)
	q.SetBusy(0, 1000)
	push(q, []int{0}, heavy, 1, 4096)
	push(q, []int{1}, light, 2, 4096)
	if id, ok := popID(q, 0); !ok || id != light {
		t.Fatalf("Pop = %d, %v, want light (work conservation)", id, ok)
	}
	if _, ok := q.Pop(0); ok {
		t.Fatal("dispatched onto a busy element")
	}
	if id, ok := popID(q, 1000); !ok || id != heavy {
		t.Fatalf("Pop = %d, %v, want heavy after horizon", id, ok)
	}
}

// TestQueuePopAllocFreeFair extends the allocation contract to the
// weighted pick path: a warm fair-share dispatch cycle across several
// tenants allocates nothing.
func TestQueuePopAllocFreeFair(t *testing.T) {
	const elements = 8
	q := newQueue(SWTF, elements)
	q.SetTenantWeight(1, 1)
	q.SetTenantWeight(2, 4)
	q.SetTenantWeight(3, 2)
	elems := make([][]int, elements)
	for e := 0; e < elements; e++ {
		elems[e] = []int{e}
	}
	reqs := make([]*treq, 1024)
	for i := range reqs {
		reqs[i] = &treq{id: i, cost: 4096}
		q.Push(&reqs[i].qn, reqs[i], elems[i%elements], uint8(1+i%3))
	}
	now := sim.Time(0)
	allocs := testing.AllocsPerRun(10000, func() {
		r, ok := q.Pop(now)
		if !ok {
			t.Fatal("steady-state pop failed")
		}
		e := r.id % elements
		q.SetBusy(e, now+1)
		q.Push(&r.qn, r, elems[e], uint8(1+r.id%3))
		now++
	})
	if allocs > 0 {
		t.Fatalf("fair dispatch cycle allocates %.1f times per op, want 0", allocs)
	}
}

// TestQueueZeroTenantWeight: a zero weight is no weight and counts as 1,
// so a zero-weighted tenant still earns deficit and shares the element
// evenly with a tenant of weight 1.
func TestQueueZeroTenantWeight(t *testing.T) {
	q := newQueue(SWTF, 1)
	q.SetTenantWeight(1, 0)
	q.SetTenantWeight(2, 1)
	if w := q.tens[0].weight; w != 1 {
		t.Fatalf("tenant 1 weight = %v after SetTenantWeight(1, 0), want 1", w)
	}
	elems := []int{0}
	for i := 0; i < 64; i++ {
		push(q, elems, 1, 1, 8<<10)
		push(q, elems, 2, 2, 8<<10)
	}
	counts := map[int]int{}
	for i := 0; i < 64; i++ {
		id, ok := popID(q, 0)
		if !ok {
			t.Fatalf("pop %d: backlogged queue stalled", i)
		}
		counts[id]++
	}
	// Equal weights split within one quantum (8 requests) of even.
	if d := counts[1] - counts[2]; d < -8 || d > 8 {
		t.Fatalf("dispatched %v of 64, want an even split", counts)
	}
}

// TestQueueNewTenantKeepsPointer: a tenant first seen mid-run that sorts
// in at the DRR pointer's position must not take over the pointer, which
// stays on the tenant it was serving; after the next refill that tenant
// goes first.
func TestQueueNewTenantKeepsPointer(t *testing.T) {
	const first, second, newcomer = 1, 2, 3
	q := newQueue(SWTF, 1)
	q.SetTenantWeight(1, 1)
	q.SetTenantWeight(5, 1)
	elems := []int{0}
	// Tenant 5 spends its whole first refill on one request, so the
	// pointer rests on it with a zero deficit and one request left.
	push(q, elems, first, 5, drrQuantum)
	push(q, elems, second, 5, 4096)
	if id, ok := popID(q, 0); !ok || id != first {
		t.Fatalf("Pop = %d, %v, want tenant 5's first request", id, ok)
	}
	// Tenant 3 sorts in between 1 and 5, at the pointer's index.
	push(q, elems, newcomer, 3, 4096)
	if id, ok := popID(q, 0); !ok || id != second {
		t.Fatalf("Pop = %d, %v, want tenant 5's second request before the newcomer", id, ok)
	}
	if id, ok := popID(q, 0); !ok || id != newcomer {
		t.Fatalf("Pop = %d, %v, want the newcomer", id, ok)
	}
}
