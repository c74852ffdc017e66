package simsvc

import (
	"bytes"
	"context"
	"testing"
)

// BenchmarkCacheLocalGetPut is the hot path every repeated submit
// rides: a verified get plus a put that lands on the existing entry. CI
// gates this at 0 allocs/op.
func BenchmarkCacheLocalGetPut(b *testing.B) {
	c := newCache(16)
	identity := []byte(`{"profile":"ssd","workload":"synthetic","bench":"get-put"}`)
	key := identityKey(identity)
	payload := bytes.Repeat([]byte("x"), 4096)
	c.put(key, identity, payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.get(key, identity); !ok {
			b.Fatal("warm cache missed")
		}
		c.put(key, identity, payload)
	}
}

// BenchmarkSingleFlightCollapse measures the coalescing machinery under
// a thundering herd: each iteration throws 16 identical never-seen
// specs at the manager and verifies exactly one simulation ran. The
// per-op cost is dominated by that single run — the point of the
// benchmark is the pinned collapse ratio, reported as runs/op.
func BenchmarkSingleFlightCollapse(b *testing.B) {
	const herd = 16
	m := New(Options{Workers: 4, CacheEntries: 4})
	defer m.Close()
	start := m.Stats().Run.N
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := smallSpec(5_000, int64(1_000_000+i)) // unique per iteration: never cached
		jobs := make([]*Job, 0, herd)
		for k := 0; k < herd; k++ {
			j, err := m.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		for _, j := range jobs {
			if v, err := j.Wait(context.Background()); err != nil || v.Status != StatusDone {
				b.Fatalf("herd job: %v %+v", err, v)
			}
		}
	}
	b.StopTimer()
	runs := m.Stats().Run.N - start
	if runs != uint64(b.N) {
		b.Fatalf("herd of %d ran %d simulations over %d iterations, want %d", herd, runs, b.N, b.N)
	}
	b.ReportMetric(float64(runs)/float64(b.N), "runs/op")
}
