package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ossd/internal/chunks"
	"ossd/internal/sim"
)

// treq is the tests' queued request: an ID and a fair-share cost, plus
// the embedded queue node.
type treq struct {
	qn   Node[treq]
	id   int
	cost int64
}

// newQueue builds a test queue charging each request its cost field.
func newQueue(policy Policy, elements int) *Queue[treq] {
	return NewQueue(policy, elements, func(r *treq) int64 { return r.cost })
}

// push enqueues a fresh request with the given ID; tenant and cost feed
// the fair-share layer.
func push(q *Queue[treq], elems []int, id int, tenant uint8, cost int64) uint64 {
	r := &treq{id: id, cost: cost}
	return q.Push(&r.qn, r, elems, tenant)
}

// popID pops the next request and returns its ID.
func popID(q *Queue[treq], now sim.Time) (int, bool) {
	r, ok := q.Pop(now)
	if !ok {
		return 0, false
	}
	return r.id, true
}

func TestQueueFCFSOrderAndBlocking(t *testing.T) {
	q := newQueue(FCFS, 2)
	a := push(q, []int{0}, 'a', 0, 1)
	b := push(q, []int{1}, 'b', 0, 1)
	if a != 1 || b != 2 {
		t.Fatalf("seqs = %d, %d, want 1, 2", a, b)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	// Head targets a busy element: FCFS must stall even though the
	// second request's element is idle.
	q.SetBusy(0, 100)
	if id, ok := popID(q, 10); ok {
		t.Fatalf("FCFS dispatched %c past a blocked head", id)
	}
	// Head clears: both dispatch, in arrival order.
	if id, ok := popID(q, 100); !ok || id != 'a' {
		t.Fatalf("Pop = %c, %v, want a", id, ok)
	}
	if id, ok := popID(q, 100); !ok || id != 'b' {
		t.Fatalf("Pop = %c, %v, want b", id, ok)
	}
	if _, ok := q.Pop(100); ok || q.Len() != 0 {
		t.Fatal("queue not empty after draining")
	}
}

func TestQueueSWTFBypassAndTieBreak(t *testing.T) {
	const blocked, bypass = 1, 2
	q := newQueue(SWTF, 2)
	q.SetBusy(0, 100)
	push(q, []int{0}, blocked, 0, 1)
	push(q, []int{1}, bypass, 0, 1)
	// SWTF bypasses the blocked head to the idle element.
	if id, ok := popID(q, 10); !ok || id != bypass {
		t.Fatalf("Pop = %d, %v, want bypass", id, ok)
	}
	if _, ok := q.Pop(10); ok {
		t.Fatal("dispatched onto a busy element")
	}
	// Element 0 clears; the waiting request dispatches.
	if id, ok := popID(q, 100); !ok || id != blocked {
		t.Fatalf("Pop = %d, %v, want blocked", id, ok)
	}

	// Equal waits tie-break by arrival order.
	const first, second = 1, 2
	q2 := newQueue(SWTF, 2)
	push(q2, []int{1}, first, 0, 1)
	push(q2, []int{0}, second, 0, 1)
	if id, ok := popID(q2, 0); !ok || id != first {
		t.Fatalf("tie Pop = %d, %v, want first", id, ok)
	}
}

func TestQueueSetBusyMonotone(t *testing.T) {
	q := newQueue(SWTF, 1)
	q.SetBusy(0, 50)
	q.SetBusy(0, 30) // horizons only grow
	if got := q.Busy(0); got != 50 {
		t.Fatalf("Busy = %v, want 50", got)
	}
	if q.Idle(0, 49) || !q.Idle(0, 50) {
		t.Fatal("Idle threshold wrong")
	}
}

// TestQueuePopAfterStall covers the memoized failure: once a Pop finds
// nothing, a later Pop still dispatches as soon as a Push or an expired
// horizon makes a head idle, under both policies and in fair mode.
func TestQueuePopAfterStall(t *testing.T) {
	for _, policy := range []Policy{FCFS, SWTF} {
		for _, fair := range []bool{false, true} {
			q := newQueue(policy, 2)
			if fair {
				q.SetTenantWeight(1, 1)
			}
			where := fmt.Sprintf("%v fair=%v", policy, fair)
			// An empty queue stalls until a push.
			for _, now := range []sim.Time{0, 5} {
				if _, ok := q.Pop(now); ok {
					t.Fatalf("%s: empty queue dispatched at %d", where, now)
				}
			}
			push(q, []int{1}, 1, 1, 1)
			if id, ok := popID(q, 5); !ok || id != 1 {
				t.Fatalf("%s: Pop = %d, %v after a push, want 1", where, id, ok)
			}
			// A head on a busy element stalls until its horizon.
			q.SetBusy(0, 100)
			push(q, []int{0}, 2, 1, 1)
			for _, now := range []sim.Time{10, 99} {
				if _, ok := q.Pop(now); ok {
					t.Fatalf("%s: dispatched onto element 0 busy until 100 at %d", where, now)
				}
			}
			if id, ok := popID(q, 100); !ok || id != 2 {
				t.Fatalf("%s: Pop = %d, %v at the horizon, want 2", where, id, ok)
			}
			if policy == FCFS {
				continue
			}
			// Under SWTF a push on an idle element ends a stall on a busy one.
			q.SetBusy(0, 200)
			push(q, []int{0}, 3, 1, 1)
			if _, ok := q.Pop(150); ok {
				t.Fatalf("%s: dispatched onto element 0 busy until 200", where)
			}
			push(q, []int{1}, 4, 1, 1)
			if id, ok := popID(q, 150); !ok || id != 4 {
				t.Fatalf("%s: Pop = %d, %v after a push on an idle element, want 4", where, id, ok)
			}
		}
	}
}

func TestQueueMultiElementParking(t *testing.T) {
	const striped, single = 1, 2
	q := newQueue(SWTF, 3)
	q.SetBusy(1, 30)
	push(q, []int{0, 1, 2}, striped, 0, 1)
	push(q, []int{2}, single, 0, 1)
	// The striped request waits on element 1; the single dispatches.
	if id, ok := popID(q, 0); !ok || id != single {
		t.Fatalf("Pop = %d, %v, want single", id, ok)
	}
	// Pop does not mark elements busy; serve the single on element 2.
	q.SetBusy(2, 60)
	// At 30 element 1 clears but 2 is busy: striped still waits.
	if _, ok := q.Pop(30); ok {
		t.Fatal("striped dispatched with element 2 busy")
	}
	if id, ok := popID(q, 60); !ok || id != striped {
		t.Fatalf("Pop = %d, %v, want striped", id, ok)
	}
}

// TestQueueBusyMask pins the busy bitset that decisions read against
// the horizons it caches: a horizon already past leaves its element idle,
// an extended horizon holds dispatch until the new one, a decision at
// exactly the horizon dispatches, tenant lanes read the same bitset, and
// an empty element set dispatches with every element busy.
func TestQueueBusyMask(t *testing.T) {
	for _, policy := range []Policy{FCFS, SWTF} {
		q := newQueue(policy, 2)
		if _, ok := q.Pop(100); ok {
			t.Fatalf("%v: empty queue dispatched", policy)
		}
		// A horizon behind the clock marks nothing busy.
		q.SetBusy(0, 50)
		push(q, []int{0}, 1, 0, 1)
		if id, ok := popID(q, 100); !ok || id != 1 {
			t.Fatalf("%v: Pop = %d, %v, want 1 on an element idle since 50", policy, id, ok)
		}
		// Extending a horizon delays dispatch to the new one.
		q.SetBusy(1, 200)
		push(q, []int{1}, 2, 0, 1)
		if _, ok := q.Pop(150); ok {
			t.Fatalf("%v: dispatched onto element 1 busy until 200", policy)
		}
		q.SetBusy(1, 300)
		for _, now := range []sim.Time{200, 299} {
			if _, ok := q.Pop(now); ok {
				t.Fatalf("%v: dispatched at %d onto element 1 busy until 300", policy, now)
			}
		}
		if id, ok := popID(q, 300); !ok || id != 2 {
			t.Fatalf("%v: Pop = %d, %v at the horizon, want 2", policy, id, ok)
		}
		// An empty element set waits on no element.
		q.SetBusy(0, 400)
		q.SetBusy(1, 400)
		push(q, nil, 3, 0, 1)
		if id, ok := popID(q, 300); !ok || id != 3 {
			t.Fatalf("%v: Pop = %d, %v with every element busy, want the empty set 3", policy, id, ok)
		}
	}

	// Two tenant lanes read one bitset: tenant 1 waits on element 1
	// while tenant 2's request on element 0 goes, and a horizon past in
	// one lane's decision is past in the other's.
	q := newQueue(SWTF, 2)
	q.SetTenantWeight(1, 1)
	q.SetTenantWeight(2, 1)
	q.SetBusy(0, 40)
	q.SetBusy(1, 80)
	push(q, []int{1}, 1, 1, 1)
	push(q, []int{0}, 2, 2, 1)
	if _, ok := q.Pop(39); ok {
		t.Fatal("fair: dispatched with both elements busy")
	}
	if id, ok := popID(q, 40); !ok || id != 2 {
		t.Fatalf("fair: Pop = %d, %v at 40, want tenant 2's request", id, ok)
	}
	if _, ok := q.Pop(79); ok {
		t.Fatal("fair: dispatched tenant 1's request onto busy element 1")
	}
	if id, ok := popID(q, 80); !ok || id != 1 {
		t.Fatalf("fair: Pop = %d, %v at 80, want tenant 1's request", id, ok)
	}
}

// legacyQueue replays the scan-era dispatch machinery exactly: a pending
// slice re-scanned with Pick and compacted by index on every dispatch.
// With tenants registered it layers the same weighted deficit round
// robin the Queue documents over one such scan per tenant, so the fair
// path has an oracle that shares none of the index.
type legacyQueue struct {
	policy    Policy
	pending   []*Entry
	data      map[uint64]int // seq -> pushed id
	cost      map[uint64]float64
	busyUntil []sim.Time
	seq       uint64
	tens      []*legacyTenant // ascending ID; empty in single-tenant mode
	rr        int
}

type legacyTenant struct {
	id              uint8
	weight, deficit float64
	pending         []*Entry
}

func newLegacy(policy Policy, elements int) *legacyQueue {
	return &legacyQueue{
		policy:    policy,
		data:      map[uint64]int{},
		cost:      map[uint64]float64{},
		busyUntil: make([]sim.Time, elements),
	}
}

// addTenant registers a tenant; call in ascending ID order.
func (l *legacyQueue) addTenant(id uint8, weight float64) {
	l.tens = append(l.tens, &legacyTenant{id: id, weight: weight})
}

func (l *legacyQueue) push(elems []int, id int, tenant uint8, cost int64) {
	l.seq++
	e := &Entry{Elems: append([]int(nil), elems...), Seq: l.seq}
	l.data[l.seq] = id
	l.cost[l.seq] = float64(max(cost, 1))
	if len(l.tens) == 0 {
		l.pending = append(l.pending, e)
		return
	}
	for _, tn := range l.tens {
		if tn.id == tenant {
			tn.pending = append(tn.pending, e)
			return
		}
	}
	panic("unregistered tenant")
}

func (l *legacyQueue) len() int {
	n := len(l.pending)
	for _, tn := range l.tens {
		n += len(tn.pending)
	}
	return n
}

// take removes pending[idx] and returns its pushed ID.
func (l *legacyQueue) take(pending *[]*Entry, idx int) int {
	e := (*pending)[idx]
	*pending = append((*pending)[:idx], (*pending)[idx+1:]...)
	return l.data[e.Seq]
}

func (l *legacyQueue) pop(now sim.Time) (int, bool) {
	if len(l.tens) == 0 {
		idx := Pick(l.policy, l.pending, l.busyUntil, now)
		if idx < 0 {
			return 0, false
		}
		return l.take(&l.pending, idx), true
	}
	n := len(l.tens)
	for {
		blockedOnDeficit := false
		for i := 0; i < n; i++ {
			idx := (l.rr + i) % n
			tn := l.tens[idx]
			pi := Pick(l.policy, tn.pending, l.busyUntil, now)
			if pi < 0 {
				continue
			}
			c := l.cost[tn.pending[pi].Seq]
			if tn.deficit >= c {
				tn.deficit -= c
				l.rr = idx
				id := l.take(&tn.pending, pi)
				if len(tn.pending) == 0 {
					tn.deficit = 0
				}
				return id, true
			}
			blockedOnDeficit = true
		}
		if !blockedOnDeficit {
			return 0, false
		}
		for _, tn := range l.tens {
			if Pick(l.policy, tn.pending, l.busyUntil, now) >= 0 {
				tn.deficit += drrQuantum * tn.weight
			}
		}
	}
}

// serviceTime is the deterministic per-(request, element) busy duration
// both models apply on dispatch.
func serviceTime(id, elem int) sim.Time {
	return sim.Time(1 + (id*31+elem*7)%53)
}

// equivCase is one randomized workload for TestQueueEquivalence.
type equivCase struct {
	name     string
	policy   Policy
	elements int
	tenants  int // 0: single-tenant; else tenants 1..N at weights 1..N
	trials   int
	steps    int
	// arrivals returns the element sets arriving this step.
	arrivals func(rng *rand.Rand) [][]int
	// service is the busy duration of request id on one element.
	service func(id, elem int) sim.Time
	// jump lets time skip straight to the next busy horizon one step in
	// three, as well as advancing by a small random step.
	jump bool
	// minDepth is the backlog the run must reach; when set, the run ends
	// by serving that backlog dry against the oracle.
	minDepth int
}

// randomSets is the legacy mix: 0..3 arrivals of 1..3 distinct random
// elements each.
func randomSets(elements int) func(*rand.Rand) [][]int {
	return func(rng *rand.Rand) [][]int {
		var sets [][]int
		for n := rng.Intn(4); n > 0; n-- {
			sets = append(sets, rng.Perm(elements)[:1+rng.Intn(3)])
		}
		return sets
	}
}

// stripedSets is the interleaved-striping shape of a deep postmark
// backlog: 2..6 arrivals per step, each a contiguous run of 1..elements
// elements (wrapping), listed in a random order so one set arrives in
// several element orders.
func stripedSets(elements int) func(*rand.Rand) [][]int {
	return func(rng *rand.Rand) [][]int {
		var sets [][]int
		for n := 2 + rng.Intn(5); n > 0; n-- {
			start, k := rng.Intn(elements), 1+rng.Intn(elements)
			set := make([]int, k)
			for i, j := range rng.Perm(k) {
				set[i] = (start + j) % elements
			}
			sets = append(sets, set)
		}
		return sets
	}
}

// TestQueueEquivalence drives the indexed Queue and the legacy Pick scan
// through identical randomized workloads and requires the dispatch
// sequences to match op-for-op. This is the index's determinism
// contract: it may change the complexity, never the schedule. The cases
// cover both policies on the legacy random mix; saturated backlogs of
// 1000+ requests on 4 elements with contiguous striped sets pushed in
// shuffled element orders, where service time dwarfs the interarrival
// gap and classes stay parked; and fair-share dispatch over three
// tenants against a per-tenant-scan DRR oracle. Saturated runs end by
// serving the backlog dry against the oracle.
func TestQueueEquivalence(t *testing.T) {
	slow := func(id, elem int) sim.Time { return sim.Time(20 + (id*31+elem*7)%40) }
	var cases []equivCase
	for _, policy := range []Policy{FCFS, SWTF} {
		cases = append(cases,
			equivCase{name: policy.String(), policy: policy, elements: 4, trials: 20, steps: 400,
				arrivals: randomSets(4), service: serviceTime, jump: true},
			equivCase{name: policy.String() + "-saturated", policy: policy, elements: 4, trials: 3, steps: 500,
				arrivals: stripedSets(4), service: slow, minDepth: 1000},
			equivCase{name: policy.String() + "-fair3", policy: policy, elements: 4, tenants: 3, trials: 10, steps: 300,
				arrivals: randomSets(4), service: serviceTime, jump: true},
			equivCase{name: policy.String() + "-fair3-saturated", policy: policy, elements: 4, tenants: 3, trials: 2, steps: 400,
				arrivals: stripedSets(4), service: slow, minDepth: 1000},
		)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for trial := 0; trial < c.trials; trial++ {
				runEquivalence(t, c, int64(trial)*100+int64(c.policy))
			}
		})
	}
}

// TestQueueEquivalenceWide runs saturated backlogs on 16, 63 and 64
// elements, and on 65, the first width with two bitset words, against
// the legacy scan under both policies. Striped sets reach the full
// element set, so at 64 elements a class's bitset word and the busy
// bitset are all ones.
func TestQueueEquivalenceWide(t *testing.T) {
	slow := func(id, elem int) sim.Time { return sim.Time(20 + (id*31+elem*7)%40) }
	for _, policy := range []Policy{FCFS, SWTF} {
		for _, elements := range []int{16, 63, 64, 65} {
			c := equivCase{policy: policy, elements: elements, steps: 200,
				arrivals: stripedSets(elements), service: slow, minDepth: 500}
			t.Run(fmt.Sprintf("%v-%d", policy, elements), func(t *testing.T) {
				runEquivalence(t, c, int64(elements))
			})
		}
	}
}

func runEquivalence(t *testing.T, c equivCase, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	q := newQueue(c.policy, c.elements)
	l := newLegacy(c.policy, c.elements)
	for tn := 1; tn <= c.tenants; tn++ {
		q.SetTenantWeight(uint8(tn), float64(tn))
		l.addTenant(uint8(tn), float64(tn))
	}
	elemsOf := map[int][]int{} // id -> element set
	now := sim.Time(0)
	// dispatch dispatches everything dispatchable at now, applying
	// identical busy horizons on both sides after each dispatch.
	dispatch := func(step int) {
		for {
			got, ok := popID(q, now)
			want, wok := l.pop(now)
			if ok != wok {
				t.Fatalf("seed %d step %d: queue ok=%v legacy ok=%v", seed, step, ok, wok)
			}
			if !ok {
				return
			}
			if got != want {
				t.Fatalf("seed %d step %d: queue dispatched %d, legacy %d", seed, step, got, want)
			}
			for _, e := range elemsOf[got] {
				until := now + c.service(got, e)
				q.SetBusy(e, until)
				if until > l.busyUntil[e] {
					l.busyUntil[e] = until
				}
			}
		}
	}
	// nextHorizon is the earliest busy horizon after now, or now.
	nextHorizon := func() sim.Time {
		next := now
		for e := 0; e < c.elements; e++ {
			if b := l.busyUntil[e]; b > now && (next == now || b < next) {
				next = b
			}
		}
		return next
	}
	id, depth := 0, 0
	for step := 0; step < c.steps; step++ {
		for _, set := range c.arrivals(rng) {
			var tenant uint8
			if c.tenants > 0 {
				tenant = uint8(1 + rng.Intn(c.tenants))
			}
			cost := int64(4096 * (1 + rng.Intn(8)))
			elemsOf[id] = set
			push(q, set, id, tenant, cost)
			l.push(set, id, tenant, cost)
			id++
		}
		depth = max(depth, q.Len())
		dispatch(step)
		// Advance time: small step or jump to the next horizon.
		if c.jump && rng.Intn(3) == 0 {
			if next := nextHorizon(); next > now {
				now = next
				continue
			}
		}
		now += sim.Time(1 + rng.Intn(20))
	}
	if q.Len() != l.len() {
		t.Fatalf("seed %d: queue len %d, legacy %d", seed, q.Len(), l.len())
	}
	if c.minDepth == 0 {
		return
	}
	if depth < c.minDepth || q.Len() < c.minDepth/2 {
		t.Fatalf("seed %d: backlog peaked at %d and ended at %d, want >= %d", seed, depth, q.Len(), c.minDepth)
	}
	// Serve the backlog dry with no further arrivals: every parked
	// request must still dispatch in the oracle's order. The last clock
	// step may have passed every horizon, so dispatch at now first.
	dispatch(c.steps)
	for step := c.steps; q.Len() > 0; step++ {
		next := nextHorizon()
		if next == now {
			t.Fatalf("seed %d: %d requests queued on an idle device", seed, q.Len())
		}
		now = next
		dispatch(step)
	}
	if l.len() != 0 {
		t.Fatalf("seed %d: legacy holds %d requests after the queue drained", seed, l.len())
	}
}

// TestQueuePopAllocFree pins the allocation contract: a steady-state
// dispatch cycle (pop one, mark busy, push a replacement) allocates
// nothing once the classes are interned.
func TestQueuePopAllocFree(t *testing.T) {
	const elements = 8
	q := newQueue(SWTF, elements)
	elems := make([][]int, elements)
	reqs := make([]*treq, 1024)
	for e := 0; e < elements; e++ {
		elems[e] = []int{e}
	}
	for i := range reqs {
		reqs[i] = &treq{id: i % elements}
		q.Push(&reqs[i].qn, reqs[i], elems[i%elements], 0)
	}
	now := sim.Time(0)
	allocs := testing.AllocsPerRun(10000, func() {
		r, ok := q.Pop(now)
		if !ok {
			t.Fatal("steady-state pop failed")
		}
		q.SetBusy(r.id, now+1)
		q.Push(&r.qn, r, elems[r.id], 0)
		now++
	})
	// The live list reaches its steady size during warmup; after that
	// the cycle must be allocation-free.
	if allocs > 0 {
		t.Fatalf("dispatch cycle allocates %.1f times per op, want 0", allocs)
	}
}

// TestDriverPumpAfterAllocFree pins PumpAfter, the way a cleaning pass
// or a cache drain returns to dispatch, at zero allocations per call.
func TestDriverPumpAfterAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	drv := NewDriver(eng, newQueue(FCFS, 1), func(*treq, sim.Time) bool { return false })
	allocs := testing.AllocsPerRun(1000, func() {
		drv.PumpAfter(1)
		eng.Run()
	})
	if allocs > 0 {
		t.Fatalf("PumpAfter allocates %.1f times per call, want 0", allocs)
	}
}

// TestQueueWideClasses covers element sets on a queue wider than 64
// elements, which intern by bitset bytes instead of a uint64 mask: one
// set listed in two orders is one class, and elements past 64 block and
// free like any other.
func TestQueueWideClasses(t *testing.T) {
	q := newQueue(SWTF, 130)
	q.SetBusy(129, 50)
	push(q, []int{129, 3, 70}, 1, 0, 1)
	push(q, []int{70}, 2, 0, 1)
	push(q, []int{3, 70, 129}, 3, 0, 1)
	if id, ok := popID(q, 0); !ok || id != 2 {
		t.Fatalf("Pop = %d, %v, want 2", id, ok)
	}
	if _, ok := q.Pop(49); ok {
		t.Fatal("dispatched onto busy element 129")
	}
	for _, want := range []int{1, 3} {
		if id, ok := popID(q, 50); !ok || id != want {
			t.Fatalf("Pop = %d, %v, want %d", id, ok, want)
		}
	}
	if n := len(q.lane.byKey); n != 2 {
		t.Fatalf("interned %d classes, want 2", n)
	}
}

// TestPoolLIFO covers the pool across its storage chunks: records come
// back last in, first out, refilling reuses the chunks without
// allocating, and an empty pool returns nil.
func TestPoolLIFO(t *testing.T) {
	var p Pool[treq]
	reqs := make([]treq, 3*chunks.Size+5)
	fill := func() {
		for i := range reqs {
			p.Put(&reqs[i])
		}
	}
	drain := func() {
		for i := len(reqs) - 1; i >= 0; i-- {
			if got := p.Get(); got != &reqs[i] {
				t.Fatalf("Get returned record %p, want record %d", got, i)
			}
		}
		if got := p.Get(); got != nil {
			t.Fatalf("empty pool returned %p", got)
		}
	}
	fill()
	drain()
	if allocs := testing.AllocsPerRun(10, func() { fill(); drain() }); allocs != 0 {
		t.Fatalf("refilling a drained pool allocates %.1f times, want 0", allocs)
	}
}

// TestHotPathPointerFree pins the records the dispatch path writes on
// every push and pop as pointer-free: a pointer field in any of them
// would put those writes under the collector's write barrier again
// whenever a GC cycle is running.
func TestHotPathPointerFree(t *testing.T) {
	var l lane
	for name, typ := range map[string]reflect.Type{
		"Node":         reflect.TypeOf(Node[treq]{}),
		"class":        reflect.TypeOf(class{}),
		"live element": reflect.TypeOf(l.live).Elem(),
		"set word":     reflect.TypeOf(l.sets).Elem(),
		"mask slot":    reflect.TypeOf(l.byMask).Elem(),
	} {
		if path := pointerPath(typ, name); path != "" {
			t.Errorf("%s carries a pointer; queue writes would pay write barriers", path)
		}
	}
}

// pointerPath returns the path to the first pointer-bearing part of t
// (pointer, func, interface, slice, map, string or chan), or "".
func pointerPath(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Func, reflect.Interface,
		reflect.Slice, reflect.Map, reflect.String, reflect.Chan:
		return path + " (" + t.Kind().String() + ")"
	case reflect.Array:
		return pointerPath(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}
