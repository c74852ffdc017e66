package sched

import (
	"encoding/binary"
	"math"
	"math/bits"

	"ossd/internal/chunks"
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
// class's head is the only one that can win. On a queue of at most 64
// elements a class keeps its set as one mask word, interned through an
// open-addressed mask table; wider queues keep a row of bitset words per
// class. A lane lists its non-empty classes densely. A decision is one
// pass over that list against a bitset of the busy elements: SWTF takes
// the lowest head Seq among the classes whose set misses every busy
// element; FCFS takes the lowest head Seq overall and dispatches it only
// if its set is idle. A decision therefore costs
// O(distinct element sets queued) word tests — at most 2^E-1, and for
// interleaved striping over E elements far fewer (15 on a 4-element
// gang) — however deep the backlog, and an element going idle moves
// nothing.
//
// A Queue owns the busy horizons of its elements (the busyUntil vector
// the scan-era device kept by hand): media models mark elements busy with
// SetBusy. The busy bitset caches them: SetBusy sets the element's bit
// and lowers freeAt, a bound at or before the earliest horizon in the
// bitset, and Pop rebuilds bitset and bound from the horizons only once
// the clock reaches freeAt, visiting only the elements marked busy.
// Under SWTF a decision with every element busy returns at once. Pop
// assumes now never decreases between calls, as the sim.Engine that
// drives a queue guarantees.
//
// Pop memoizes failure: once a decision finds nothing dispatchable, the
// queue answers every later Pop at once until a Push arrives or a
// rebuild finds an element idle. Those are the only changes that can
// make a head dispatchable: SetBusy only grows horizons, and a failed
// decision leaves every deficit and the DRR pointer as they were.
//
// Each request's queue record is a Node embedded in the caller's own
// request, so the queue does not allocate on the dispatch path. The
// index holds no pointers on its hot path. A node carries an int32 id
// that the queue assigns on the record's first Push and maps back to the
// record through a table written once per record; the class FIFOs link
// nodes by id, and the live lists hold int32 indices into the lane's
// class table. Linking and unlinking therefore write only integers, and
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
	// busy is the bitset of elements busy at the last rebuild plus those
	// marked by SetBusy since, and nbusy counts its bits. freeAt is at or
	// before the earliest horizon among them (math.MaxInt64 when none):
	// while the clock is short of it, busy is exact.
	busy   []uint64
	nbusy  int
	freeAt sim.Time
	// stalled records that the last decision found nothing dispatchable
	// and nothing has changed since that could make a head dispatchable.
	stalled bool
	seq     uint64
	length  int
	// cost reports a request's DRR dispatch cost in bytes; nil (or a
	// cost <= 0) charges 1.
	cost func(*T) int64

	// recs maps node id-1 to its record: appended on a record's first
	// Push, never rewritten.
	recs chunks.Slice[record[T]]

	// lane is the single-tenant sub-queue; it stays empty in fair mode.
	lane lane

	// Weighted fair-share (DRR) state; engaged by SetTenantWeight. tens
	// is the tenant ring, sorted by tenant ID; rr is the round-robin
	// pointer into it.
	fair bool
	tens []*tenantQ
	rr   int

	// words and key are scratch for interning element sets on queues
	// wider than 64 elements; words is nil on narrower ones.
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
type Pool[T any] struct{ free chunks.Slice[*T] }

// Put pools owner.
func (p *Pool[T]) Put(owner *T) { p.free.Push(owner) }

// Get unpools the most recently pooled record, or returns nil when the
// pool is empty.
func (p *Pool[T]) Get() *T {
	if p.free.Len() == 0 {
		return nil
	}
	return p.free.Pop()
}

// none is the nil class index.
const none = -1

// class is one interned element set within a lane: the lane's queued
// requests targeting exactly that set in arrival order (node ids, 0 when
// empty), the head's Seq, and, while the class is non-empty, its
// position in the lane's live list. On a queue of at most 64 elements
// mask is the set; wider queues keep it as the class's row of the lane's
// sets table. Classes are never freed: a lane holds one per distinct
// element set it has seen.
type class struct {
	head, tail int32
	live       int32
	seq        uint64
	mask       uint64
}

// lane is one dispatch sub-queue: the whole queue in single-tenant mode,
// one tenant's share in fair mode. It interns its own classes and lists
// the non-empty ones, in no particular order, in live. empty is the
// class of the empty element set, or none: that class dispatches even
// when every element is busy. Every cross-reference is an index into
// classes.
//
// A lane of at most 64 elements interns by mask in byMask, an
// open-addressed table of class index+1 (0 marks a free slot) with
// linear probing, a power of two long and at most half full; it never
// deletes, because classes are never freed. A wider lane keeps each
// class's set as a row of len(Queue.busy) words in sets and interns by
// the bitset's bytes in byKey.
type lane struct {
	classes []class
	live    []int32
	empty   int32
	byMask  []int32
	sets    []uint64
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

// NewQueue returns an empty queue dispatching under policy over the given
// number of parallel elements, all idle. cost, consulted only in
// weighted fair-share mode, reports a request's dispatch cost in bytes
// (a cost <= 0, or a nil cost, counts as 1).
func NewQueue[T any](policy Policy, elements int, cost func(*T) int64) *Queue[T] {
	words := max(1, (elements+63)/64)
	q := &Queue[T]{
		policy:    policy,
		busyUntil: make([]sim.Time, elements),
		busy:      make([]uint64, words),
		freeAt:    math.MaxInt64,
		cost:      cost,
	}
	if words > 1 {
		q.words = make([]uint64, words)
	}
	q.lane.empty = none
	return q
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
// is a no-op. A horizon already past when Pop next runs leaves the
// element idle.
func (q *Queue[T]) SetBusy(e int, until sim.Time) {
	if until <= q.busyUntil[e] {
		return
	}
	q.busyUntil[e] = until
	if w, b := e>>6, uint64(1)<<(e&63); q.busy[w]&b == 0 {
		q.busy[w] |= b
		q.nbusy++
	}
	q.freeAt = min(q.freeAt, until)
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
	tq.empty = none
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
		q.recs.Push(record[T]{node: n, owner: owner})
		id = int32(q.recs.Len())
		n.id = id
	} else if int(id) > q.recs.Len() || q.recs.At(int(id)-1).node != n {
		panic("sched: node pushed to a queue other than its first")
	}
	q.seq++
	n.next, n.seq = 0, q.seq
	q.length++
	q.stalled = false
	// Pushes arrive in Seq order, so appending keeps the class FIFO
	// sorted. A class that was empty joins the live list.
	ci := q.classFor(l, elems)
	c := &l.classes[ci]
	if c.tail != 0 {
		q.node(c.tail).next = id
		c.tail = id
		return n.seq
	}
	c.head, c.tail, c.seq = id, id, n.seq
	c.live = int32(len(l.live))
	l.live = append(l.live, ci)
	return n.seq
}

// node returns the node with the given id.
func (q *Queue[T]) node(id int32) *Node[T] { return q.recs.At(int(id) - 1).node }

// classFor returns the index of l's class for the element set, interning
// it on first sight. Sets are keyed by bitset, so element order and
// duplicates do not matter.
func (q *Queue[T]) classFor(l *lane, elems []int) int32 {
	if q.words == nil {
		var m uint64
		for _, e := range elems {
			m |= 1 << e
		}
		return l.classForMask(m)
	}
	clear(q.words)
	for _, e := range elems {
		q.words[e>>6] |= 1 << (e & 63)
	}
	q.key = q.key[:0]
	var or uint64
	for _, w := range q.words {
		q.key = binary.LittleEndian.AppendUint64(q.key, w)
		or |= w
	}
	c, ok := l.byKey[string(q.key)]
	if !ok {
		if l.byKey == nil {
			l.byKey = map[string]int32{}
		}
		c = l.newClass(0)
		l.sets = append(l.sets, q.words...)
		if or == 0 {
			l.empty = c
		}
		l.byKey[string(q.key)] = c
	}
	return c
}

// classForMask is classFor on a lane of at most 64 elements.
func (l *lane) classForMask(m uint64) int32 {
	if len(l.byMask) == 0 {
		l.byMask = make([]int32, 16)
	}
	i := l.maskSlot(m)
	if slot := l.byMask[i]; slot != 0 {
		return slot - 1
	}
	c := l.newClass(m)
	if m == 0 {
		l.empty = c
	}
	l.byMask[i] = c + 1
	if 2*len(l.classes) > len(l.byMask) {
		l.byMask = make([]int32, 2*len(l.byMask))
		for ci := range l.classes {
			l.byMask[l.maskSlot(l.classes[ci].mask)] = int32(ci) + 1
		}
	}
	return c
}

// maskSlot returns the index of the byMask slot holding mask m's class,
// or of the free slot where it would go.
func (l *lane) maskSlot(m uint64) uint64 {
	last := uint64(len(l.byMask) - 1)
	i := maskHash(m) & last
	for l.byMask[i] != 0 && l.classes[l.byMask[i]-1].mask != m {
		i = (i + 1) & last
	}
	return i
}

// maskHash spreads an element mask over the table's low bits
// (Fibonacci hashing).
func maskHash(m uint64) uint64 { return (m * 0x9e3779b97f4a7c15) >> 32 }

// newClass appends an empty class with the given mask and returns its
// index.
func (l *lane) newClass(mask uint64) int32 {
	ci := int32(len(l.classes))
	l.classes = append(l.classes, class{mask: mask})
	return ci
}

// Pop removes and returns the next dispatchable request, or (nil, false)
// if nothing may dispatch at now. It never allocates.
func (q *Queue[T]) Pop(now sim.Time) (*T, bool) {
	if now >= q.freeAt {
		q.refresh(now)
	}
	if q.stalled {
		return nil, false
	}
	if q.fair {
		r, ok := q.popFair()
		q.stalled = !ok
		return r, ok
	}
	c := q.peek(&q.lane)
	if c == none {
		q.stalled = true
		return nil, false
	}
	return q.take(&q.lane, c), true
}

// refresh clears from the busy bitset the elements whose horizons have
// passed at now and recomputes freeAt from the rest. An element outside
// the bitset has a horizon already past (SetBusy sets the bit of every
// horizon it raises), so only the set bits need a look. Idling an
// element ends a stall.
func (q *Queue[T]) refresh(now sim.Time) {
	q.freeAt = math.MaxInt64
	for w, word := range q.busy {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			if until := q.busyUntil[w<<6|b]; until > now {
				q.freeAt = min(q.freeAt, until)
			} else {
				q.busy[w] &^= 1 << b
				q.nbusy--
				q.stalled = false
			}
		}
	}
}

// popFair is the weighted deficit-round-robin dispatch: visit tenants in
// ring order from the DRR pointer, dispatch the first whose policy head
// is dispatchable and whose deficit covers its cost; when every
// dispatchable head is deficit-blocked, refill each such tenant by
// quantum x weight and rescan. The refill loop terminates because
// weights are positive, and it returns false only when no tenant has a
// dispatchable head — the Driver contract. Never allocates.
func (q *Queue[T]) popFair() (*T, bool) {
	n := len(q.tens)
	for {
		blockedOnDeficit := false
		for i := 0; i < n; i++ {
			idx := q.rr + i
			if idx >= n {
				idx -= n
			}
			tq := q.tens[idx]
			c := q.peek(&tq.lane)
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
			if q.peek(&tq.lane) != none {
				tq.deficit += float64(drrQuantum * tq.weight)
			}
		}
	}
}

// costOf is the DRR dispatch cost of the request with node id.
func (q *Queue[T]) costOf(id int32) float64 {
	if q.cost == nil {
		return 1
	}
	return float64(max(q.cost(q.recs.At(int(id)-1).owner), 1))
}

// peek returns the index of the class whose head dispatches next from l
// against the busy bitset, or none. Under SWTF that is the lowest-Seq
// head among the classes whose set is idle; under FCFS it is the
// lowest-Seq head overall, if its set is idle, which blocks only its own
// lane.
func (q *Queue[T]) peek(l *lane) int32 {
	if len(l.live) == 0 {
		return none
	}
	if q.policy != SWTF {
		best := l.live[0]
		for _, ci := range l.live[1:] {
			if l.classes[ci].seq < l.classes[best].seq {
				best = ci
			}
		}
		if q.idle(l, best) {
			return best
		}
		return none
	}
	if q.nbusy == len(q.busyUntil) && (l.empty == none || l.classes[l.empty].head == 0) {
		return none
	}
	best, seq := int32(none), uint64(math.MaxUint64)
	if len(q.busy) == 1 {
		busy := q.busy[0]
		for _, ci := range l.live {
			if c := &l.classes[ci]; c.seq < seq && c.mask&busy == 0 {
				best, seq = ci, c.seq
			}
		}
		return best
	}
	for _, ci := range l.live {
		if s := l.classes[ci].seq; s < seq && q.idle(l, ci) {
			best, seq = ci, s
		}
	}
	return best
}

// idle reports whether class ci of l targets no busy element.
func (q *Queue[T]) idle(l *lane, ci int32) bool {
	if len(q.busy) == 1 {
		return l.classes[ci].mask&q.busy[0] == 0
	}
	n := len(q.busy)
	for i, w := range l.sets[int(ci)*n : int(ci)*n+n] {
		if w&q.busy[i] != 0 {
			return false
		}
	}
	return true
}

// take detaches the head of class ci, the class peek just returned, from
// l and returns its owner. A class left empty leaves the live list by
// swapping the last entry into its place.
func (q *Queue[T]) take(l *lane, ci int32) *T {
	c := &l.classes[ci]
	r := q.recs.At(int(c.head) - 1)
	if next := r.node.next; next != 0 {
		c.head, c.seq = next, q.node(next).seq
	} else {
		c.head, c.tail = 0, 0
		last := l.live[len(l.live)-1]
		l.live[c.live] = last
		l.classes[last].live = c.live
		l.live = l.live[:len(l.live)-1]
	}
	q.length--
	return r.owner
}
