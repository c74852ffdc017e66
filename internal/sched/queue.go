package sched

import (
	"encoding/binary"
	"math/bits"

	"ossd/internal/sim"
)

// Queue is the stateful, indexed successor of the stateless Pick scan: a
// dispatch queue that knows each parallel element's busy horizon and
// answers "what dispatches now?" without rescanning (or reallocating)
// the whole pending set on every decision.
//
// The legacy Pick contract is preserved exactly — the equivalence test in
// queue_test.go pins the dispatch sequence op-for-op against Pick on
// randomized workloads:
//
//   - FCFS dispatches strictly in arrival order; if the head's elements
//     are busy nothing dispatches (head-of-line blocking).
//   - SWTF dispatches the request with the shortest wait, tie-broken by
//     arrival Seq, and only when that wait is zero. Since ties break by
//     Seq and dispatch happens only at wait zero, the winner is always
//     the lowest-Seq request whose elements are all idle.
//
// The index groups requests by element set. Requests with the same set
// share one interned class, which holds them in an arrival-order FIFO;
// within a class they are dispatchable together or not at all, so the
// class's head is the only one that can win. Classes sit in a min-heap
// keyed by their head's Seq, whose top holds the oldest request: FCFS
// dispatches it or nothing. Under SWTF, Pop lazily parks a stale top
// class on the element it must wait longest for. The wake record for
// that element's horizon releases it: back into the heap if all its
// elements are idle, or straight onto the parked list of the busy
// element it now waits longest for. An element release therefore
// costs O(distinct element sets parked on it) — at most 2^E-1 and, for
// interleaved striping over E elements, far fewer — instead of
// O(requests parked on it).
//
// A Queue owns the busy horizons of its elements (the busyUntil vector
// the scan-era device kept by hand): media models mark elements busy with
// SetBusy and the queue wakes parked classes as the clock passes their
// horizons. Each request's queue record is a Node embedded in the
// caller's own request, so the queue does not allocate on the dispatch
// path.
//
// The index holds no pointers on its hot path. A node carries an int32
// id that the queue assigns on the record's first Push and maps back to
// the record through a table written once per record; the class FIFOs
// link nodes by id, and the candidate heap, the parked lists and the
// per-element blocked heads hold int32 indices into the lane's class
// table. Linking, sifting and parking therefore write only integers, and
// cost the same whether or not a GC cycle has the write barrier on.
//
// A Queue optionally layers weighted fair-share dispatch across tenant
// classes on top of either policy: SetTenantWeight switches it into
// deficit-round-robin mode, where each tenant keeps its own lane (its
// own class index) ordered by the base policy, and a DRR pointer
// with per-tenant byte-deficit counters picks which tenant's
// dispatchable head goes next. Until SetTenantWeight is called the
// fair-share layer does not exist — every request rides the single
// lane, so legacy runs are byte-identical to the pre-tenancy queue.
//
// Queues are not safe for concurrent use; like the sim.Engine that drives
// them, a queue belongs to a single simulation.
type Queue[T any] struct {
	policy    Policy
	busyUntil []sim.Time
	seq       uint64
	length    int
	// cost reports a request's DRR dispatch cost in bytes; nil (or a
	// cost <= 0) charges 1.
	cost func(*T) int64

	// recs maps node id-1 to its record: appended on a record's first
	// Push, never rewritten.
	recs chunks[record[T]]

	// lane is the single-tenant sub-queue; it stays empty in fair mode.
	lane lane
	// wakes is a min-heap of (horizon, element) records (SWTF only).
	wakes []wake

	// Weighted fair-share (DRR) state; engaged by SetTenantWeight. tens
	// is the tenant ring, sorted by tenant ID; rr is the round-robin
	// pointer into it.
	fair bool
	tens []*tenantQ
	rr   int

	// words and key are scratch for interning element sets on queues
	// wider than 64 elements.
	words []uint64
	key   []byte
}

// Node is one request's queue record. Callers embed it in their own
// request type and hand the queue both; the node is in use from Push
// until the request is popped, and must not be reused before then. A
// record belongs to the first queue that pushes it: its id is assigned
// then and must survive the record's reuse, so a caller resetting a
// pooled record keeps the node. T is the request type, so a queue takes
// only its own kind of node.
type Node[T any] struct {
	id   int32 // 1 + index into the queue's record table; 0 until first Push
	next int32 // class FIFO link: id of the next node, 0 at the tail
	seq  uint64
}

// record is the queue's one pointer-bearing view of a pushed request.
type record[T any] struct {
	node  *Node[T]
	owner *T
}

// Pool is a LIFO of idle records, kept in chunked slices. The slots past
// its top keep the records last taken from them, so a pool suits records
// owned by one device for the pool's whole life, as media request records
// are.
type Pool[T any] struct{ free chunks[*T] }

// Put pools owner.
func (p *Pool[T]) Put(owner *T) { p.free.push(owner) }

// Get unpools the most recently pooled record, or returns nil when the
// pool is empty.
func (p *Pool[T]) Get() *T {
	if p.free.n == 0 {
		return nil
	}
	p.free.n--
	return *p.free.at(p.free.n)
}

// chunkBits sizes the chunks of a chunks table: 256 entries.
const chunkBits = 8

// chunks is a slice stored in fixed-size chunks. Growing it never copies
// or discards storage, and entries past n stay allocated for reuse. A
// device's record table and pool fill from empty, so a short replay
// that grew them by doubling would leave every outgrown array to the
// collector.
type chunks[E any] struct {
	c [][]E
	n int
}

// push appends e.
func (s *chunks[E]) push(e E) {
	if s.n>>chunkBits == len(s.c) {
		s.c = append(s.c, make([]E, 1<<chunkBits))
	}
	*s.at(s.n) = e
	s.n++
}

// at returns entry i.
func (s *chunks[E]) at(i int) *E { return &s.c[i>>chunkBits][i&(1<<chunkBits-1)] }

// none is the nil class index.
const none = -1

// class is one interned element set within a lane: the set itself, the
// lane's queued requests targeting exactly that set in arrival order
// (node ids, 0 when empty), and the class's place in the index — in the
// candidate heap (heapIdx >= 0), on an SWTF parked list (linked through
// nextParked), or neither when empty. Classes are never freed: a lane
// holds one per distinct element set it has seen.
type class struct {
	elems      []int // ascending
	head, tail int32
	seq        uint64 // head's Seq: the heap key
	heapIdx    int32
	nextParked int32
}

// lane is one dispatch sub-queue: the whole queue in single-tenant mode,
// one tenant's share in fair mode. It is a Seq-keyed candidate heap of
// classes plus, under SWTF, per-element parked lists, and it interns its
// own classes, keyed by element bitmask (or by the bitset's bytes past
// 64 elements). Every cross-reference is an index into classes.
type lane struct {
	classes []class
	ready   []int32 // candidate heap
	blocked []int32 // SWTF per-element parked list heads
	byMask  map[uint64]int32
	byKey   map[string]int32
}

// drrQuantum is the base deficit refill in bytes; a tenant's refill is
// drrQuantum times its weight.
const drrQuantum = 64 << 10

// tenantQ is one tenant's lane in weighted fair-share mode, with its DRR
// state.
type tenantQ struct {
	lane
	id      uint8
	weight  float64
	deficit float64
	length  int
}

// wake records that an element's busy horizon ends at `at`; processing it
// then releases the element's parked classes. Horizons only move while
// an element is idle, so the record matching the current horizon is
// always present (stale records are skipped, never trusted).
type wake struct {
	at   sim.Time
	elem int
}

// NewQueue returns an empty queue dispatching under policy over the given
// number of parallel elements, all idle. cost, consulted only in
// weighted fair-share mode, reports a request's dispatch cost in bytes
// (a cost <= 0, or a nil cost, counts as 1).
func NewQueue[T any](policy Policy, elements int, cost func(*T) int64) *Queue[T] {
	q := &Queue[T]{
		policy:    policy,
		busyUntil: make([]sim.Time, elements),
		cost:      cost,
	}
	q.initLane(&q.lane)
	if elements > 64 {
		q.words = make([]uint64, (elements+63)/64)
	}
	return q
}

func (q *Queue[T]) initLane(l *lane) {
	l.blocked = make([]int32, len(q.busyUntil))
	for e := range l.blocked {
		l.blocked[e] = none
	}
	if len(q.busyUntil) <= 64 {
		l.byMask = map[uint64]int32{}
	} else {
		l.byKey = map[string]int32{}
	}
}

// Len reports the number of queued (not yet dispatched) requests.
func (q *Queue[T]) Len() int { return q.length }

// Busy reports element e's busy horizon: the time at which it becomes
// available again (in the past or present when idle).
func (q *Queue[T]) Busy(e int) sim.Time { return q.busyUntil[e] }

// Idle reports whether element e is available at now.
func (q *Queue[T]) Idle(e int, now sim.Time) bool { return q.busyUntil[e] <= now }

// SetBusy marks element e busy until the given horizon. Horizons only
// grow: marking an element busy until a time before its current horizon
// is a no-op.
func (q *Queue[T]) SetBusy(e int, until sim.Time) {
	if until <= q.busyUntil[e] {
		return
	}
	q.busyUntil[e] = until
	if q.policy == SWTF {
		q.pushWake(wake{at: until, elem: e})
	}
}

// SetTenantWeight switches the queue into weighted fair-share mode and
// sets one tenant's scheduler weight (> 0; larger shares dispatch more
// bytes). Call it at device construction time, before any Push: tenants
// seen later without an explicit weight default to 1. Without any call,
// the fair-share layer is absent and dispatch is exactly the legacy
// single-tenant policy.
func (q *Queue[T]) SetTenantWeight(tenant uint8, weight float64) {
	if weight <= 0 {
		weight = 1
	}
	q.fair = true
	q.tenantFor(tenant).weight = weight
}

// tenantFor returns tenant t's lane, inserting it into the ring in
// sorted position on first sight.
func (q *Queue[T]) tenantFor(t uint8) *tenantQ {
	i := 0
	for i < len(q.tens) && q.tens[i].id < t {
		i++
	}
	if i < len(q.tens) && q.tens[i].id == t {
		return q.tens[i]
	}
	tq := &tenantQ{id: t, weight: 1}
	q.initLane(&tq.lane)
	q.tens = append(q.tens, nil)
	copy(q.tens[i+1:], q.tens[i:])
	q.tens[i] = tq
	if i <= q.rr && len(q.tens) > 1 {
		q.rr++ // keep the DRR pointer on the tenant it was on
	}
	return tq
}

// Push enqueues owner, whose embedded node is n, as a request occupying
// the given elements (in any order; the caller may reuse the slice), and
// returns its arrival sequence number. In fair-share mode the request
// joins tenant's lane; in single-tenant mode tenant is ignored and the
// push is exactly the legacy one.
func (q *Queue[T]) Push(n *Node[T], owner *T, elems []int, tenant uint8) uint64 {
	l := &q.lane
	if q.fair {
		tq := q.tenantFor(tenant)
		tq.length++
		l = &tq.lane
	}
	id := n.id
	if id == 0 {
		q.recs.push(record[T]{node: n, owner: owner})
		id = int32(q.recs.n)
		n.id = id
	} else if int(id) > q.recs.n || q.recs.at(int(id)-1).node != n {
		panic("sched: node pushed to a queue other than its first")
	}
	q.seq++
	n.next, n.seq = 0, q.seq
	q.length++
	// Pushes arrive in Seq order, so appending keeps the class FIFO
	// sorted. A class that was empty enters as a candidate; under SWTF,
	// Pop parks it lazily if its elements turn out busy.
	ci := q.classFor(l, elems)
	c := &l.classes[ci]
	if c.tail != 0 {
		q.node(c.tail).next = id
		c.tail = id
		return n.seq
	}
	c.head, c.tail, c.seq = id, id, n.seq
	l.heapPush(ci)
	return n.seq
}

// node returns the node with the given id.
func (q *Queue[T]) node(id int32) *Node[T] { return q.recs.at(int(id) - 1).node }

// classFor returns the index of l's class for the element set, interning
// it on first sight. Sets are keyed by bitmask, so element order and
// duplicates do not matter.
func (q *Queue[T]) classFor(l *lane, elems []int) int32 {
	if l.byMask != nil {
		var m uint64
		for _, e := range elems {
			m |= 1 << uint(e)
		}
		c, ok := l.byMask[m]
		if !ok {
			c = l.newClass([]uint64{m})
			l.byMask[m] = c
		}
		return c
	}
	clear(q.words)
	for _, e := range elems {
		q.words[e/64] |= 1 << uint(e%64)
	}
	q.key = q.key[:0]
	for _, w := range q.words {
		q.key = binary.LittleEndian.AppendUint64(q.key, w)
	}
	c, ok := l.byKey[string(q.key)]
	if !ok {
		c = l.newClass(q.words)
		l.byKey[string(q.key)] = c
	}
	return c
}

// newClass appends an empty class for the element bitset and returns its
// index.
func (l *lane) newClass(set []uint64) int32 {
	c := class{heapIdx: none, nextParked: none}
	for i, w := range set {
		for ; w != 0; w &= w - 1 {
			c.elems = append(c.elems, i*64+bits.TrailingZeros64(w))
		}
	}
	l.classes = append(l.classes, c)
	return int32(len(l.classes) - 1)
}

// wait is the legacy Entry.Wait over the queue's own busy horizons.
func (q *Queue[T]) wait(elems []int, now sim.Time) sim.Time {
	var w sim.Time
	for _, e := range elems {
		if b := q.busyUntil[e] - now; b > w {
			w = b
		}
	}
	return w
}

// Pop removes and returns the next dispatchable request, or (nil, false)
// if nothing may dispatch at now. It never allocates.
func (q *Queue[T]) Pop(now sim.Time) (*T, bool) {
	if q.policy == SWTF {
		q.release(now)
	}
	if q.fair {
		return q.popFair(now)
	}
	c := q.peek(&q.lane, now)
	if c == none {
		return nil, false
	}
	return q.take(&q.lane, c), true
}

// popFair is the weighted deficit-round-robin dispatch: visit tenants in
// ring order from the DRR pointer, dispatch the first whose policy head
// is dispatchable and whose deficit covers its cost; when every
// dispatchable head is deficit-blocked, refill each such tenant by
// quantum x weight and rescan. The refill loop terminates because
// weights are positive, and it returns false only when no tenant has a
// dispatchable head — the Driver contract. Never allocates.
func (q *Queue[T]) popFair(now sim.Time) (*T, bool) {
	n := len(q.tens)
	for {
		blockedOnDeficit := false
		for i := 0; i < n; i++ {
			idx := q.rr + i
			if idx >= n {
				idx -= n
			}
			tq := q.tens[idx]
			c := q.peek(&tq.lane, now)
			if c == none {
				continue
			}
			if cost := q.costOf(tq.classes[c].head); tq.deficit >= cost {
				tq.deficit -= cost
				q.rr = idx // keep serving this tenant while its deficit lasts
				tq.length--
				if tq.length == 0 {
					tq.deficit = 0 // classic DRR: no credit hoarding while idle
				}
				return q.take(&tq.lane, c), true
			}
			blockedOnDeficit = true
		}
		if !blockedOnDeficit {
			return nil, false
		}
		for _, tq := range q.tens {
			if q.peek(&tq.lane, now) != none {
				tq.deficit += drrQuantum * tq.weight
			}
		}
	}
}

// costOf is the DRR dispatch cost of the request with node id.
func (q *Queue[T]) costOf(id int32) float64 {
	if q.cost == nil {
		return 1
	}
	return float64(max(q.cost(q.recs.at(int(id)-1).owner), 1))
}

// peek returns the index of the class whose head dispatches next from l
// at now, or none. Under SWTF it parks stale candidate classes until the
// top one is dispatchable; under FCFS the top class holds the lane's
// oldest request, which blocks only its own lane.
func (q *Queue[T]) peek(l *lane, now sim.Time) int32 {
	for len(l.ready) > 0 {
		c := l.ready[0]
		if q.policy != SWTF {
			if q.wait(l.classes[c].elems, now) == 0 {
				return c
			}
			return none
		}
		if !q.park(l, c, now) {
			return c
		}
		l.heapRemove(c)
	}
	return none
}

// take detaches the head of class ci, the class peek just returned, from
// l and returns its owner.
func (q *Queue[T]) take(l *lane, ci int32) *T {
	c := &l.classes[ci]
	r := q.recs.at(int(c.head) - 1)
	if next := r.node.next; next == 0 {
		c.head, c.tail = 0, 0
		l.heapRemove(ci)
	} else {
		// The new head arrived later: the class's key only grows.
		c.head, c.seq = next, q.node(next).seq
		l.siftDown(int(c.heapIdx))
	}
	q.length--
	return r.owner
}

// park parks class ci on the busy element it must wait longest for and
// reports true, or reports false, leaving it alone, when all its
// elements are idle at now.
func (q *Queue[T]) park(l *lane, ci int32, now sim.Time) bool {
	c := &l.classes[ci]
	worst, horizon := -1, sim.Time(0)
	for _, e := range c.elems {
		if b := q.busyUntil[e]; b > now && b > horizon {
			worst, horizon = e, b
		}
	}
	if worst < 0 {
		return false
	}
	c.nextParked = l.blocked[worst]
	l.blocked[worst] = ci
	return true
}

// release processes due wake records: every element whose horizon has
// passed gets its parked classes, in every lane, released.
func (q *Queue[T]) release(now sim.Time) {
	for len(q.wakes) > 0 && q.wakes[0].at <= now {
		w := q.popWake()
		if q.busyUntil[w.elem] > now {
			// Stale record: the element was re-marked busy; the newer
			// record carries its current horizon.
			continue
		}
		q.unpark(&q.lane, w.elem, now)
		for _, tq := range q.tens {
			q.unpark(&tq.lane, w.elem, now)
		}
	}
}

// unpark releases the classes parked on idle element e. A class that
// still waits on another busy element parks there at once; only classes
// dispatchable at now become candidates, so peek never pops a released
// class straight back out. Every dispatchable class is still a
// candidate, and the lowest-Seq one still wins: dispatch order is the
// same as promoting every released class and letting peek re-park it.
func (q *Queue[T]) unpark(l *lane, e int, now sim.Time) {
	c := l.blocked[e]
	l.blocked[e] = none
	for c != none {
		next := l.classes[c].nextParked
		l.classes[c].nextParked = none
		if !q.park(l, c, now) {
			l.heapPush(c)
		}
		c = next
	}
}

// ---- Seq-keyed candidate heap of classes ----

func (l *lane) heapPush(c int32) {
	i := len(l.ready)
	l.classes[c].heapIdx = int32(i)
	l.ready = append(l.ready, c)
	l.siftUp(i)
}

func (l *lane) heapRemove(c int32) {
	i := int(l.classes[c].heapIdx)
	last := len(l.ready) - 1
	moved := l.ready[last]
	l.ready[i] = moved
	l.classes[moved].heapIdx = int32(i)
	l.ready = l.ready[:last]
	if i < last {
		l.siftDown(i)
		l.siftUp(i)
	}
	l.classes[c].heapIdx = none
}

// swap exchanges heap positions i and j, keeping heapIdx in step.
func (l *lane) swap(i, j int) {
	ready := l.ready
	ready[i], ready[j] = ready[j], ready[i]
	l.classes[ready[i]].heapIdx = int32(i)
	l.classes[ready[j]].heapIdx = int32(j)
}

// key is the heap key at position i: its class's head Seq.
func (l *lane) key(i int) uint64 { return l.classes[l.ready[i]].seq }

func (l *lane) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if l.key(p) <= l.key(i) {
			return
		}
		l.swap(p, i)
		i = p
	}
}

func (l *lane) siftDown(i int) {
	n := len(l.ready)
	for {
		left, right := 2*i+1, 2*i+2
		min := i
		if left < n && l.key(left) < l.key(min) {
			min = left
		}
		if right < n && l.key(right) < l.key(min) {
			min = right
		}
		if min == i {
			return
		}
		l.swap(i, min)
		i = min
	}
}

// ---- (horizon, element) wake heap ----

func (q *Queue[T]) pushWake(w wake) {
	q.wakes = append(q.wakes, w)
	i := len(q.wakes) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.wakes[p].at <= q.wakes[i].at {
			break
		}
		q.wakes[p], q.wakes[i] = q.wakes[i], q.wakes[p]
		i = p
	}
}

func (q *Queue[T]) popWake() wake {
	w := q.wakes[0]
	last := len(q.wakes) - 1
	q.wakes[0] = q.wakes[last]
	q.wakes = q.wakes[:last]
	i, n := 0, last
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.wakes[l].at < q.wakes[min].at {
			min = l
		}
		if r < n && q.wakes[r].at < q.wakes[min].at {
			min = r
		}
		if min == i {
			break
		}
		q.wakes[i], q.wakes[min] = q.wakes[min], q.wakes[i]
		i = min
	}
	return w
}
