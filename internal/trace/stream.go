package trace

import (
	"container/heap"
	"fmt"
	"math"

	"ossd/internal/sim"
)

// Stream is a pull-based iterator over trace operations: the canonical
// workload currency. Generators produce Streams, devices consume them
// (core.Device.Drive), and combinators compose them — so a million-op
// workload flows through the system one Op at a time instead of as a
// materialized slice.
//
// Next returns the next operation and true, or a zero Op and false once
// the stream is exhausted. After false, further calls keep returning
// false. Streams are single-use and not safe for concurrent use.
//
// A stream that can fail mid-iteration (a decoder reading a file, a
// validating transform) additionally implements ErrStream; consumers that
// drain a stream should check Err afterwards.
type Stream interface {
	Next() (Op, bool)
}

// ErrStream is implemented by streams whose iteration can fail. Next
// returning false may mean exhaustion or error; Err distinguishes the
// two. Err is meaningful once Next has returned false.
type ErrStream interface {
	Stream
	// Err returns the first error the stream hit, or nil.
	Err() error
}

// Err returns s's iteration error, if s tracks one (see ErrStream), and
// nil otherwise. Combinators propagate Err from their sources, so
// checking the outermost stream is sufficient.
func Err(s Stream) error {
	if es, ok := s.(ErrStream); ok {
		return es.Err()
	}
	return nil
}

// Func adapts a closure to a Stream.
type Func func() (Op, bool)

// Next implements Stream.
func (f Func) Next() (Op, bool) { return f() }

// sliceStream iterates over a materialized trace.
type sliceStream struct {
	ops []Op
	i   int
}

func (s *sliceStream) Next() (Op, bool) {
	if s.i >= len(s.ops) {
		return Op{}, false
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

// FromSlice returns a Stream over ops. The slice is not copied; it must
// not be mutated while the stream is live.
func FromSlice(ops []Op) Stream { return &sliceStream{ops: ops} }

// limitStream caps a stream at n operations.
type limitStream struct {
	src  Stream
	left int
}

func (l *limitStream) Next() (Op, bool) {
	if l.left <= 0 {
		return Op{}, false
	}
	op, ok := l.src.Next()
	if !ok {
		l.left = 0
		return Op{}, false
	}
	l.left--
	return op, true
}

func (l *limitStream) Err() error { return Err(l.src) }

// Limit returns a stream that yields at most n operations from s.
func Limit(s Stream, n int) Stream { return &limitStream{src: s, left: n} }

// shiftStream offsets every timestamp by a fixed delta.
type shiftStream struct {
	src   Stream
	delta sim.Time
}

func (s *shiftStream) Next() (Op, bool) {
	op, ok := s.src.Next()
	if !ok {
		return Op{}, false
	}
	op.At += s.delta
	return op, true
}

func (s *shiftStream) Err() error { return Err(s.src) }

// Shift returns a stream whose timestamps are offset by delta — the
// streaming form of "shift the trace past the preconditioning window".
func Shift(s Stream, delta sim.Time) Stream { return &shiftStream{src: s, delta: delta} }

// mergeHead is one source's buffered head in a merge.
type mergeHead struct {
	op  Op
	src int // index into merge.srcs; breaks timestamp ties stably
}

type mergeHeap []mergeHead

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].op.At != h[j].op.At {
		return h[i].op.At < h[j].op.At
	}
	return h[i].src < h[j].src
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeHead)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// mergeStream interleaves timestamp-ordered sources into one
// timestamp-ordered stream, holding one buffered op per source.
type mergeStream struct {
	srcs  []Stream
	heads mergeHeap
	init  bool
}

func (m *mergeStream) Next() (Op, bool) {
	if !m.init {
		m.init = true
		for i, s := range m.srcs {
			if op, ok := s.Next(); ok {
				m.heads = append(m.heads, mergeHead{op: op, src: i})
			}
		}
		heap.Init(&m.heads)
	}
	if len(m.heads) == 0 {
		return Op{}, false
	}
	head := m.heads[0]
	if op, ok := m.srcs[head.src].Next(); ok {
		m.heads[0] = mergeHead{op: op, src: head.src}
		heap.Fix(&m.heads, 0)
	} else {
		heap.Pop(&m.heads)
	}
	return head.op, true
}

func (m *mergeStream) Err() error {
	for _, s := range m.srcs {
		if err := Err(s); err != nil {
			return err
		}
	}
	return nil
}

// Merge interleaves timestamp-ordered streams into one timestamp-ordered
// stream (ties go to the earlier argument). It buffers one operation per
// source — O(len(streams)) memory regardless of stream length. Use it to
// compose concurrent workloads, e.g. a foreground stream merged with a
// background scan.
func Merge(streams ...Stream) Stream { return &mergeStream{srcs: streams} }

// Modulation shapes a tenant's arrival process when its stream joins a
// multi-tenant mix: a deterministic time warp applied per op, so the
// same source stream produces the same shaped arrivals on every run.
// The warp maps the source's "virtual" time axis (scaled by Rate) onto
// wall time through a periodic rate profile: a steady tenant passes
// through linearly, a bursty tenant packs its work into a duty window
// each period, and a diurnal tenant follows a raised-cosine day/night
// cycle between a trough and a peak.
type Modulation struct {
	// Kind selects the profile: "" or "steady", "bursty", "diurnal".
	Kind string `json:"kind,omitempty"`
	// Rate scales the tenant's overall arrival rate (0 = 1.0): source
	// timestamps are divided by it before shaping, so 2.0 issues the
	// same ops twice as fast.
	Rate float64 `json:"rate,omitempty"`
	// Period is the modulation cycle length (0 = 1s). Steady ignores it.
	Period sim.Time `json:"period_ns,omitempty"`
	// Duty is the fraction of each bursty period the tenant is on
	// (0 = 0.25). Diurnal and steady ignore it.
	Duty float64 `json:"duty,omitempty"`
	// Floor is the off-window (bursty) or trough (diurnal) rate relative
	// to the peak, in [0, 1]. Bursty defaults to 0 (fully idle between
	// bursts); diurnal defaults to 0.1.
	Floor float64 `json:"floor,omitempty"`
	// Phase offsets the cycle as a fraction of a period, so tenants
	// sharing a period can burst out of step.
	Phase float64 `json:"phase,omitempty"`
}

// Validate rejects out-of-range modulation parameters.
func (m Modulation) Validate() error {
	switch m.Kind {
	case "", "steady", "bursty", "diurnal":
	default:
		return fmt.Errorf("trace: unknown modulation kind %q", m.Kind)
	}
	if m.Rate < 0 {
		return fmt.Errorf("trace: negative modulation rate %v", m.Rate)
	}
	if m.Period < 0 {
		return fmt.Errorf("trace: negative modulation period %v", m.Period)
	}
	if m.Duty < 0 || m.Duty > 1 {
		return fmt.Errorf("trace: modulation duty %v out of [0, 1]", m.Duty)
	}
	if m.Floor < 0 || m.Floor > 1 {
		return fmt.Errorf("trace: modulation floor %v out of [0, 1]", m.Floor)
	}
	if m.Phase < 0 || m.Phase >= 1 {
		return fmt.Errorf("trace: modulation phase %v out of [0, 1)", m.Phase)
	}
	return nil
}

// profile returns the per-period rate slots (relative to peak) and the
// period. A slot's rate is how fast virtual time advances per wall
// nanosecond while wall time is inside that slot.
func (m Modulation) profile() ([]float64, sim.Time) {
	period := m.Period
	if period == 0 {
		period = sim.Second
	}
	switch m.Kind {
	case "bursty":
		duty := m.Duty
		if duty == 0 {
			duty = 0.25
		}
		// Two slots: on for duty*period at peak rate, off at Floor. The
		// slot table is expressed over 16 equal slots so duty needs no
		// special casing in the inverse map.
		slots := make([]float64, 16)
		for i := range slots {
			if float64(i) < duty*16 {
				slots[i] = 1
			} else {
				slots[i] = m.Floor
			}
		}
		return slots, period
	case "diurnal":
		floor := m.Floor
		if floor == 0 {
			floor = 0.1
		}
		// Raised cosine sampled at 16 slots: peak at the cycle start,
		// trough half a period later. math.Cos is bit-reproducible for a
		// given input, so the shaped timestamps are identical every run.
		slots := make([]float64, 16)
		for i := range slots {
			c := (1 + math.Cos(2*math.Pi*float64(i)/16)) / 2 // 1 at 0, 0 at half period
			slots[i] = floor + float64((1-floor)*c)
		}
		return slots, period
	default:
		return nil, period
	}
}

// warp maps a source timestamp onto the shaped wall clock.
type warp struct {
	rate    float64
	slots   []float64 // nil = steady
	period  sim.Time
	perSlot float64 // wall ns per slot
	cap     float64 // virtual ns capacity per period
	phase   sim.Time
}

func newWarp(m Modulation) warp {
	rate := m.Rate
	if rate == 0 {
		rate = 1
	}
	slots, period := m.profile()
	w := warp{rate: rate, slots: slots, period: period}
	if slots != nil {
		w.perSlot = float64(period) / float64(len(slots))
		for _, s := range slots {
			w.cap += float64(s * w.perSlot)
		}
	}
	w.phase = sim.Time(m.Phase * float64(period))
	return w
}

// apply warps one timestamp. It is monotone in t, so a sorted source
// stream stays sorted.
func (w warp) apply(t sim.Time) sim.Time {
	v := float64(t) / w.rate // virtual time consumed by the source
	if w.slots == nil {
		return w.phase + sim.Time(v)
	}
	periods := 0.0
	if w.cap > 0 {
		periods = float64(int64(v / w.cap))
	}
	rem := v - float64(periods*w.cap)
	wall := periods * float64(w.period)
	for _, s := range w.slots {
		if s <= 0 {
			wall += w.perSlot
			continue
		}
		slotCap := float64(s * w.perSlot)
		if rem < slotCap {
			wall += rem / s
			rem = 0
			break
		}
		rem -= slotCap
		wall += w.perSlot
	}
	// rem > 0 only if every slot rate is zero; park such ops at the
	// period boundary rather than dividing by zero.
	return w.phase + sim.Time(wall)
}

// TenantStream couples one tenant's workload with its arrival shaping
// for MergeTenants.
type TenantStream struct {
	// Tenant tags every op of this source (must be nonzero: 0 is the
	// untagged legacy default).
	Tenant uint8
	// Stream is the tenant's timestamp-ordered workload.
	Stream Stream
	// Mod shapes the tenant's arrivals; the zero value passes the
	// source timing through unchanged.
	Mod Modulation
}

// tenantTagStream tags and warps one tenant's ops.
type tenantTagStream struct {
	src    Stream
	tenant uint8
	w      warp
}

func (t *tenantTagStream) Next() (Op, bool) {
	op, ok := t.src.Next()
	if !ok {
		return Op{}, false
	}
	op.Tenant = t.tenant
	op.At = t.w.apply(op.At)
	return op, true
}

func (t *tenantTagStream) Err() error { return Err(t.src) }

// MergeTenants tags each source's ops with its tenant ID, shapes each
// tenant's arrival times under its modulation, and interleaves the
// results into one timestamp-ordered stream (ties go to the earlier
// source). It is the front door for multi-tenant workloads: per-tenant
// generators in, one schedulable mix out, at O(len(srcs)) memory.
func MergeTenants(srcs []TenantStream) (Stream, error) {
	tagged := make([]Stream, len(srcs))
	for i, src := range srcs {
		if src.Tenant == 0 {
			return nil, fmt.Errorf("trace: tenant stream %d has tenant 0 (reserved for untagged ops)", i)
		}
		if err := src.Mod.Validate(); err != nil {
			return nil, err
		}
		tagged[i] = &tenantTagStream{src: src.Stream, tenant: src.Tenant, w: newWarp(src.Mod)}
	}
	return Merge(tagged...), nil
}

// tallyStream accumulates Stats as operations pass through.
type tallyStream struct {
	src Stream
	st  *Stats
}

func (t *tallyStream) Next() (Op, bool) {
	op, ok := t.src.Next()
	if ok {
		t.st.add(op)
	}
	return op, ok
}

func (t *tallyStream) Err() error { return Err(t.src) }

// Tally returns a pass-through stream that accumulates summary statistics
// into st as operations flow by, without materializing the trace. st is
// complete once the stream is drained.
func Tally(s Stream, st *Stats) Stream { return &tallyStream{src: s, st: st} }
