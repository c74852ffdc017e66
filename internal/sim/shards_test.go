package sim

import (
	"testing"
)

// shardModel is a tiny per-shard workload: each delivered message
// schedules a chain of follow-up events inside its own shard, recording
// the (time, shard) sequence it observes.
type shardModel struct {
	eng   *Engine
	log   []Time
	hops  int
	delay Time
}

func hopEvent(a any) {
	m := a.(*shardModel)
	m.log = append(m.log, m.eng.Now())
	if m.hops > 0 {
		m.hops--
		m.eng.Call(m.delay, hopEvent, m)
	}
}

// TestShardGroupDeterminism runs the same posting sequence through a
// parallel group and an inline group and requires identical per-shard
// event logs and clocks.
func TestShardGroupDeterminism(t *testing.T) {
	run := func(parallel bool) ([][]Time, Time) {
		g := NewShardGroup(4, 64)
		if parallel {
			g.Start()
			defer g.Stop()
		}
		models := make([]*shardModel, g.N())
		for i := range models {
			models[i] = &shardModel{eng: g.Engine(i), hops: 3 + i, delay: Time(7 + i)}
		}
		rng := NewRNG(42)
		at := Time(0)
		for k := 0; k < 200; k++ {
			at += Time(rng.Int63n(50))
			shard := int(rng.Int63n(int64(g.N())))
			if !g.Post(shard, at, hopEvent, models[shard]) {
				t.Fatal("inbox overflow")
			}
			if k%20 == 19 {
				g.RunWindow(at) // next posting is at >= at: a valid lookahead bound
			}
		}
		g.RunWindow(MaxTime)
		logs := make([][]Time, len(models))
		for i, m := range models {
			logs[i] = m.log
		}
		return logs, g.MaxNow()
	}

	inlineLogs, inlineNow := run(false)
	parLogs, parNow := run(true)
	if inlineNow != parNow {
		t.Fatalf("final clock: inline %v parallel %v", inlineNow, parNow)
	}
	for i := range inlineLogs {
		if len(inlineLogs[i]) != len(parLogs[i]) {
			t.Fatalf("shard %d: %d events inline, %d parallel", i, len(inlineLogs[i]), len(parLogs[i]))
		}
		for k := range inlineLogs[i] {
			if inlineLogs[i][k] != parLogs[i][k] {
				t.Fatalf("shard %d event %d: inline at %v, parallel at %v", i, k, inlineLogs[i][k], parLogs[i][k])
			}
		}
	}
}

// TestShardGroupTransfer moves pending events onto a fresh engine and
// checks the merged execution preserves per-shard order and rewrites
// payloads.
func TestShardGroupTransfer(t *testing.T) {
	g := NewShardGroup(3, 16)
	type probe struct{ shard int }
	var order []int
	record := func(a any) { order = append(order, a.(*probe).shard) }
	// Same-timestamp events across shards must merge in shard order;
	// within a shard, scheduling order.
	for i := 0; i < g.N(); i++ {
		p := &probe{shard: i}
		g.Engine(i).CallAt(100, record, p)
		g.Engine(i).CallAt(50+Time(i), record, p)
	}
	dst := NewEngine()
	rewrote := 0
	n := g.Transfer(dst, func(arg any) any { rewrote++; return arg })
	if n != 6 || rewrote != 6 {
		t.Fatalf("transferred %d events, rewrote %d, want 6/6", n, rewrote)
	}
	for i := 0; i < g.N(); i++ {
		if n := g.Engine(i).Pending(); n != 0 {
			t.Fatalf("shard %d still holds %d events after transfer", i, n)
		}
	}
	dst.Run()
	want := []int{0, 1, 2, 0, 1, 2} // times 50,51,52 then the 100s in shard order
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("event %d ran on shard %d, want %d (order %v)", i, order[i], want[i], order)
		}
	}
}

// TestShardGroupInboxBound checks Post reports a full inbox instead of
// growing without bound.
func TestShardGroupInboxBound(t *testing.T) {
	g := NewShardGroup(1, 4)
	for i := 0; i < 4; i++ {
		if !g.Post(0, Time(i), func(any) {}, nil) {
			t.Fatalf("post %d rejected below the bound", i)
		}
	}
	if g.Post(0, 4, func(any) {}, nil) {
		t.Fatal("post accepted beyond the bound")
	}
	if free := g.InboxFree(0); free != 0 {
		t.Fatalf("inbox free = %d, want 0", free)
	}
	g.RunWindow(MaxTime)
	if free := g.InboxFree(0); free != 4 {
		t.Fatalf("inbox free after window = %d, want 4", free)
	}
}
