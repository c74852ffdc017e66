package sched

import (
	"slices"
	"testing"

	"ossd/internal/sim"
)

// TestDriverRoundsOnlyOnChange pins the Pump contract on a two-element
// model: a pump whose serves all report no change runs one pre/Pop/post
// round, a serve that reports a change buys exactly one more round, and
// so does a hook that makes progress.
func TestDriverRoundsOnlyOnChange(t *testing.T) {
	eng := sim.NewEngine()
	q := newQueue(SWTF, 2)
	var served []int
	changes := map[int]bool{}
	drv := NewDriver(eng, q, func(r *treq, now sim.Time) bool {
		served = append(served, r.id)
		q.SetBusy(r.id%2, now+10)
		return changes[r.id]
	})
	var pres, posts, preProgress int
	drv.SetHooks(
		func(sim.Time) bool {
			pres++
			if preProgress > 0 {
				preProgress--
				return true
			}
			return false
		},
		func(sim.Time) bool { posts++; return false })
	// pump pushes one request per id on element id%2, at time at, pumps
	// once and checks what was served and how many rounds ran.
	pump := func(at sim.Time, rounds int, ids ...int) {
		t.Helper()
		eng.CallAt(at, func(any) {}, nil)
		eng.Run()
		for _, id := range ids {
			push(q, []int{id % 2}, id, 0, 1)
		}
		served, pres, posts = served[:0], 0, 0
		drv.Pump()
		if !slices.Equal(served, ids) {
			t.Fatalf("at %d served %v, want %v", at, served, ids)
		}
		if pres != rounds || posts != rounds {
			t.Fatalf("at %d: %d pre and %d post calls, want %d rounds", at, pres, posts, rounds)
		}
	}
	pump(0, 1, 0, 1)
	changes[3] = true
	pump(10, 2, 2, 3)
	preProgress = 1
	pump(20, 2, 4, 5)
	// Nothing queued and nothing changed: one round.
	pump(30, 1)
}
