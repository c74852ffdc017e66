package sim

import (
	"fmt"
	"sort"
)

// MaxTime is the largest representable simulated time. As a window
// horizon it means "run until the shard's heap is empty".
const MaxTime = Time(1<<63 - 1)

// Message is one cross-shard posting: the pooled (func(any), arg)
// callback form of Engine.CallAt plus its delivery time. Messages are
// value slots in a bounded per-shard inbox, so posting work into a shard
// allocates nothing once the inbox has reached its steady-state size.
type Message struct {
	At  Time
	Fn  func(any)
	Arg any
}

// ShardGroup runs N private Engines under conservative parallel
// discrete-event simulation. Each shard owns its engine (its own
// four-ary heap) and whatever model state the caller partitions onto it;
// the group only synchronizes at window barriers.
//
// The execution contract is the conservative-PDES one:
//
//   - Between windows the coordinator goroutine owns everything: it may
//     Post messages into shard inboxes, read shard clocks, or Transfer
//     pending events elsewhere.
//   - RunWindow(h) delivers each shard's inbox in posting order and runs
//     every shard concurrently up to and including horizon h, then
//     barriers. The caller must choose h so that no future posting will
//     target a time <= h — with open-loop arrivals the next arrival's
//     timestamp is exactly that lookahead bound.
//   - Shards never touch each other's state; cross-shard work travels
//     only through Post, which is delivered at a barrier. Posting into a
//     shard's past panics inside the shard, exactly like Engine.CallAt.
//
// Determinism: a shard's event order is (at, seq) exactly as in a single
// Engine, and inbox delivery order is posting order, so for a fixed
// posting sequence the execution is bit-for-bit reproducible regardless
// of how the OS schedules the workers.
type ShardGroup struct {
	engines  []*Engine
	inbox    [][]Message
	inboxCap int

	cmd  []chan Time
	done chan struct{}
	open bool
}

// NewShardGroup builds a group of n empty engines with bounded inboxes.
func NewShardGroup(n, inboxCap int) *ShardGroup {
	if n <= 0 {
		panic(fmt.Sprintf("sim: shard group needs at least one shard, got %d", n))
	}
	if inboxCap <= 0 {
		inboxCap = 1024
	}
	g := &ShardGroup{
		engines:  make([]*Engine, n),
		inbox:    make([][]Message, n),
		inboxCap: inboxCap,
		done:     make(chan struct{}, n),
	}
	for i := range g.engines {
		g.engines[i] = NewEngine()
		g.inbox[i] = make([]Message, 0, inboxCap)
	}
	return g
}

// N reports the number of shards.
func (g *ShardGroup) N() int { return len(g.engines) }

// Engine returns shard i's engine. Outside a window the coordinator may
// use it freely; during a window it belongs to the shard's worker.
func (g *ShardGroup) Engine(i int) *Engine { return g.engines[i] }

// Post appends a message to shard i's inbox for delivery at the next
// window. It reports false when the inbox is full (the caller should run
// a window to drain it); it never blocks and never allocates once the
// inbox backing array has grown to its bound.
func (g *ShardGroup) Post(i int, at Time, fn func(any), arg any) bool {
	if len(g.inbox[i]) >= g.inboxCap {
		return false
	}
	g.inbox[i] = append(g.inbox[i], Message{At: at, Fn: fn, Arg: arg})
	return true
}

// InboxFree reports how many more messages shard i's inbox accepts
// before the next window must run.
func (g *ShardGroup) InboxFree(i int) int { return g.inboxCap - len(g.inbox[i]) }

// Start spawns one worker goroutine per shard. Workers park between
// windows; Stop joins them. Start/Stop pairs may repeat, so callers can
// scope the goroutines to one parallel phase and leak nothing.
func (g *ShardGroup) Start() {
	if g.open {
		return
	}
	g.cmd = make([]chan Time, len(g.engines))
	for i := range g.engines {
		g.cmd[i] = make(chan Time)
		go g.worker(i)
	}
	g.open = true
}

// Stop joins the workers started by Start. Idempotent.
func (g *ShardGroup) Stop() {
	if !g.open {
		return
	}
	for _, c := range g.cmd {
		close(c)
	}
	g.cmd = nil
	g.open = false
}

func (g *ShardGroup) worker(i int) {
	for h := range g.cmd[i] {
		g.runShard(i, h)
		g.done <- struct{}{}
	}
}

// runShard delivers shard i's inbox and advances its engine to h.
func (g *ShardGroup) runShard(i int, h Time) {
	eng := g.engines[i]
	box := g.inbox[i]
	for k := range box {
		m := &box[k]
		eng.CallAt(m.At, m.Fn, m.Arg)
		*m = Message{}
	}
	g.inbox[i] = box[:0]
	if h == MaxTime {
		eng.Run()
	} else {
		eng.RunUntil(h)
	}
}

// RunWindow delivers every inbox and advances every shard up to and
// including horizon h (MaxTime drains the heaps), then barriers. With
// Start active the shards run concurrently; otherwise they run inline on
// the calling goroutine — same semantics, useful for tests and for
// machines where the parallel session is not worth spawning.
func (g *ShardGroup) RunWindow(h Time) {
	if !g.open {
		for i := range g.engines {
			g.runShard(i, h)
		}
		return
	}
	for _, c := range g.cmd {
		c <- h
	}
	for range g.engines {
		<-g.done
	}
}

// MaxNow reports the latest shard clock.
func (g *ShardGroup) MaxNow() Time {
	var max Time
	for _, eng := range g.engines {
		if eng.now > max {
			max = eng.now
		}
	}
	return max
}

// Transfer drains every pending event from every shard, in (at, shard,
// scheduling-order) order, and reschedules them onto dst, preserving
// that order. rewrite (optional) maps each callback payload to
// its replacement, which is how a caller retargets per-shard state
// pointers at the merge. Returns the number of events moved.
//
// Within a shard the original relative order is kept exactly; events in
// different shards carrying the same timestamp merge in shard order. The
// caller must have advanced dst's clock no later than the earliest
// pending event. Transfer is the one-way door from parallel windows back
// to single-engine execution: after it the shard heaps are empty.
func (g *ShardGroup) Transfer(dst *Engine, rewrite func(arg any) any) int {
	var evs []event
	for _, eng := range g.engines {
		for len(eng.events) > 0 {
			evs = append(evs, eng.pop())
		}
	}
	// Shard-major concatenation + stable sort by time = (at, shard,
	// original order) merge order.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	for _, ev := range evs {
		if rewrite != nil {
			ev.arg = rewrite(ev.arg)
		}
		dst.CallAt(ev.at, ev.call, ev.arg)
	}
	return len(evs)
}
