// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event heap, and seeded random distributions. All
// device models in this repository (SSD, HDD) advance time exclusively
// through an Engine, which makes every experiment reproducible from a
// seed and independent of wall-clock time.
package sim

import (
	"fmt"
)

// Time is a point on the simulated clock, in nanoseconds since the start
// of the simulation. Durations are also expressed as Time.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a simulated time or duration to float seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts a simulated time or duration to float milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros converts a simulated time or duration to float microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// event is one heap entry: a time, a tie-breaking sequence number, and
// the index of the slot holding its callback. seq breaks ties so that
// events scheduled earlier run earlier, giving a stable, deterministic
// order. The entry holds no pointers, so the sifts that move it on every
// schedule and fire are plain copies: the collector's write barrier never
// sees them, whether or not a GC cycle is running.
type event struct {
	at   Time
	seq  uint64
	slot int32
}

// before is the heap order: earliest time first, scheduling order within
// a timestamp.
func (e event) before(o event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// slot holds a pending event's callback as a (call, arg) pair, so a
// package-level function with a pointer payload schedules with zero
// allocations per event. A free slot links to the next free one.
type slot struct {
	call     func(any)
	arg      any
	nextFree int32
}

// Engine is a discrete-event simulator. The zero value is ready to use.
// Engines are not safe for concurrent use; a simulation is a single
// logical thread of control.
//
// The pending set is a four-ary min-heap laid flat in a slice of event
// entries keyed on (at, seq) — no heap.Interface, no per-event boxing.
// Four-way fan-out halves the tree depth of a binary heap, and the
// shallower sift-down touches cache lines that are adjacent anyway
// because the children are contiguous. The callbacks live apart from the
// heap in a slot table whose freed slots are reused LIFO through an
// int32 free list, so each event costs one pointer write (into its slot)
// however far it sifts. A freed slot keeps its last callback and payload
// until reuse; the table never grows past the peak pending count, and
// steady-state scheduling does not allocate.
type Engine struct {
	now    Time
	seq    uint64
	events []event
	slots  []slot
	free   int32 // 1 + index of the first free slot; 0 when none is free
	ran    uint64
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled, not-yet-run events.
func (e *Engine) Pending() int { return len(e.events) }

// Processed reports the total number of events run so far.
func (e *Engine) Processed() uint64 { return e.ran }

// CallAt schedules fn(arg) at absolute time t. The callback and its
// payload travel as plain values in the event's slot, so a caller
// passing a package-level function and a pointer payload schedules with
// zero allocations. Scheduling in the past panics: it indicates a model
// bug, and silently reordering time would corrupt every statistic
// downstream.
func (e *Engine) CallAt(t Time, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	s := e.free - 1
	if s >= 0 {
		sl := &e.slots[s]
		e.free = sl.nextFree
		sl.call, sl.arg = fn, arg
	} else {
		s = int32(len(e.slots))
		e.slots = append(e.slots, slot{call: fn, arg: arg})
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, slot: s})
}

// Call schedules fn(arg) to run d after the current time; see CallAt.
func (e *Engine) Call(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.CallAt(e.now+d, fn, arg)
}

// Step runs the single next event, advancing the clock to its timestamp.
// It reports whether an event was available.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	s := &e.slots[ev.slot]
	call, arg := s.call, s.arg
	// Free the slot before the call, so an event the callback schedules
	// reuses it.
	s.nextFree, e.free = e.free, ev.slot+1
	e.now = ev.at
	e.ran++
	call(arg)
	return true
}

// Run processes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// ---- four-ary event heap ----

// arity is the heap fan-out. Four keeps siblings in one or two cache
// lines (an event is 24 bytes) and halves the depth of a binary heap.
const arity = 4

// push appends ev and restores the heap order with a hole-based sift-up:
// the new event is written once, into its final position.
func (e *Engine) push(ev event) {
	i := len(e.events)
	e.events = append(e.events, event{})
	for i > 0 {
		p := (i - 1) / arity
		if !ev.before(e.events[p]) {
			break
		}
		e.events[i] = e.events[p]
		i = p
	}
	e.events[i] = ev
}

// pop removes and returns the minimum event.
func (e *Engine) pop() event {
	top := e.events[0]
	n := len(e.events) - 1
	last := e.events[n]
	e.events = e.events[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return top
}

// siftDown re-inserts ev (the former tail) starting from the root,
// walking hole-first: each level moves one event up instead of swapping.
func (e *Engine) siftDown(ev event) {
	n := len(e.events)
	i := 0
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + arity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if e.events[c].before(e.events[min]) {
				min = c
			}
		}
		if !e.events[min].before(ev) {
			break
		}
		e.events[i] = e.events[min]
		i = min
	}
	e.events[i] = ev
}
