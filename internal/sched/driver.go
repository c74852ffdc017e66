package sched

import "ossd/internal/sim"

// Driver is the dispatch engine shared by the media models: one pump loop
// over an indexed Queue, with hooks for the work a substrate does around
// dispatch. The SSD hangs garbage collection on the hooks (mandatory
// cleaning before dispatch, opportunistic cleaning after), the disk hangs
// its write-cache drain on the post hook, and MEMS uses the bare loop —
// so all substrates queue and dispatch through this one code path.
//
// Serve is called once per dispatched request with the request and the
// current simulated time; it must start service (marking elements busy
// via Queue.SetBusy) and arrange for Pump to run again on completion. It
// reports whether it changed state that the hooks read on elements it
// did not make busy: a model whose hooks look only at idle elements
// reports a change that it made elsewhere, or that it cannot bound, such
// as a request completed on the spot (whose callback may submit more).
// Pre and Post run before and after the dispatch pass of each round and
// report whether they made progress. A round repeats only when a hook
// made progress or a serve reported a change: otherwise nothing the
// round's hooks or Pops read has changed since they ran, and a repeat
// would find nothing to do.
type Driver[T any] struct {
	eng   *sim.Engine
	q     *Queue[T]
	serve func(req *T, now sim.Time) bool
	pre   func(now sim.Time) bool
	post  func(now sim.Time) bool
	// pumpEv is pumpEvent[T] as a value, taken once: inside generic code
	// each evaluation of an instantiated function value allocates.
	pumpEv func(any)
}

// NewDriver builds a driver pumping q on eng, dispatching through serve.
func NewDriver[T any](eng *sim.Engine, q *Queue[T], serve func(req *T, now sim.Time) bool) *Driver[T] {
	return &Driver[T]{eng: eng, q: q, serve: serve, pumpEv: pumpEvent[T]}
}

// SetHooks installs the pre- and post-dispatch hooks (either may be nil).
func (d *Driver[T]) SetHooks(pre, post func(now sim.Time) bool) {
	d.pre, d.post = pre, post
}

// pumpEvent is the engine callback form of Pump: arg is the *Driver.
// Keeping it a package-level function lets PumpAfter schedule through
// the engine's pooled event path without allocating a closure (or a
// method value) per completion.
func pumpEvent[T any](a any) { a.(*Driver[T]).Pump() }

// PumpAfter schedules a Pump d from now through the engine's pooled
// event path. Media models use it wherever device-initiated work (a
// cleaning pass, a cache drain) ends at a known future time.
func (d *Driver[T]) PumpAfter(delay sim.Time) {
	d.eng.Call(delay, d.pumpEv, d)
}

// Pump advances the device state machine: pre-dispatch work, then as many
// dispatches as the queue allows, then post-dispatch work, repeating
// while a hook makes progress or a serve reports a change. Call it on
// every arrival and on every completion.
func (d *Driver[T]) Pump() {
	now := d.eng.Now()
	for {
		again := d.pre != nil && d.pre(now)
		for {
			req, ok := d.q.Pop(now)
			if !ok {
				break
			}
			if d.serve(req, now) {
				again = true
			}
		}
		if d.post != nil && d.post(now) {
			again = true
		}
		if !again {
			return
		}
	}
}
