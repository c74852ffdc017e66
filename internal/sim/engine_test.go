package sim

import (
	"container/heap"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// runFn is the test-local closure adapter: it lets a test schedule a
// plain func() through the engine's (call, arg) event form.
func runFn(a any) { a.(func())() }

// atFn schedules fn at absolute time t.
func atFn(e *Engine, t Time, fn func()) { e.CallAt(t, runFn, fn) }

// afterFn schedules fn d after the current time.
func afterFn(e *Engine, d Time, fn func()) { e.Call(d, runFn, fn) }

// TestEventSize pins the heap entry: at, seq, and the slot index. The
// heap moves entries by value on every sift, so a field added here costs
// every schedule and fire.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Fatalf("event is %d bytes, want 24", got)
	}
}

// TestHotPathPointerFree pins the heap entry as pointer-free: a pointer
// field would put every sift under the collector's write barrier again
// whenever a GC cycle is running.
func TestHotPathPointerFree(t *testing.T) {
	if path := pointerPath(reflect.TypeOf(event{}), "event"); path != "" {
		t.Fatalf("%s carries a pointer; heap moves would pay write barriers", path)
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

func TestEngineZeroValue(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("zero engine Now = %v, want 0", e.Now())
	}
	if e.Step() {
		t.Fatal("Step on empty engine reported an event")
	}
}

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	atFn(e, 30, func() { got = append(got, 3) })
	atFn(e, 10, func() { got = append(got, 1) })
	atFn(e, 20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events ran out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v after run, want 30", e.Now())
	}
}

func TestEngineStableTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		atFn(e, 5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not in scheduling order: %v", got)
		}
	}
}

func TestEngineAfterNesting(t *testing.T) {
	e := NewEngine()
	var times []Time
	afterFn(e, 10, func() {
		times = append(times, e.Now())
		afterFn(e, 5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("nested After produced %v, want [10 15]", times)
	}
}

func TestEnginePanicsOnPastSchedule(t *testing.T) {
	e := NewEngine()
	atFn(e, 10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	atFn(e, 5, func() {})
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	afterFn(e, -1, func() {})
}

func TestEngineProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 17; i++ {
		atFn(e, Time(i), func() {})
	}
	e.Run()
	if e.Processed() != 17 {
		t.Fatalf("Processed = %d, want 17", e.Processed())
	}
}

// Property: for any set of scheduled times, events fire in sorted order
// and the clock is monotone.
func TestEngineSortedProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			atFn(e, at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		want := make([]Time, len(raw))
		for i, r := range raw {
			want[i] = Time(r)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// refEvent and refHeap are a reference implementation of the event queue
// — the pre-refactor container/heap binary heap of boxed values — used
// to pin the four-ary heap's order, including same-timestamp seq
// ordering, against an independent structure.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestEngineEquivalenceWithBinaryHeap drives 10k randomized events —
// timestamps drawn from a small range so duplicates are common — through
// both the engine's four-ary heap and the reference binary heap, with
// pushes interleaved into the drain, and requires the identical fire
// order. Events alternate between adapted closures and direct CallAt
// payloads, so both kinds of argument travel through the heap.
func TestEngineEquivalenceWithBinaryHeap(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ref := &refHeap{}
		var seq uint64
		var fired, want []int
		const total = 10_000
		id := 0
		schedule := func() {
			// A narrow window above now forces heavy timestamp collision.
			at := e.Now() + Time(rng.Intn(50))
			seq++
			heap.Push(ref, refEvent{at: at, seq: seq, id: id})
			this := id
			if id%2 == 0 {
				atFn(e, at, func() { fired = append(fired, this) })
			} else {
				e.CallAt(at, func(a any) { fired = append(fired, a.(int)) }, this)
			}
			id++
		}
		for id < total {
			// Random bursts of pushes interleaved with partial drains.
			for burst := rng.Intn(40); burst >= 0 && id < total; burst-- {
				schedule()
			}
			for steps := rng.Intn(30); steps >= 0; steps-- {
				if !e.Step() {
					break
				}
				want = append(want, heap.Pop(ref).(refEvent).id)
			}
		}
		for e.Step() {
			want = append(want, heap.Pop(ref).(refEvent).id)
		}
		if ref.Len() != 0 {
			t.Fatalf("seed %d: reference heap still holds %d events", seed, ref.Len())
		}
		if len(fired) != total || len(want) != total {
			t.Fatalf("seed %d: fired %d, reference %d, want %d", seed, len(fired), len(want), total)
		}
		for i := range fired {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: fire order diverged from binary-heap reference at %d: got id %d, want %d",
					seed, i, fired[i], want[i])
			}
		}
	}
}

// TestEngineEdgeCases covers the boundary behaviors of the run loop:
// scheduling at the current time, in the past, or with a negative delay.
func TestEngineEdgeCases(t *testing.T) {
	t.Run("ScheduleAtNow", func(t *testing.T) {
		e := NewEngine()
		atFn(e, 10, func() {})
		e.Run()
		ran := 0
		atFn(e, e.Now(), func() { ran++ }) // scheduling at now is legal
		e.Run()
		if ran != 1 {
			t.Fatalf("event at Now() ran %d times, want 1", ran)
		}
		if e.Now() != 10 {
			t.Fatalf("clock moved to %v, want 10", e.Now())
		}
	})
	t.Run("AtPanicsOnPast", func(t *testing.T) {
		e := NewEngine()
		atFn(e, 10, func() {})
		e.Run()
		defer func() {
			if recover() == nil {
				t.Fatal("closure scheduled in the past did not panic")
			}
		}()
		atFn(e, 9, func() {})
	})
	t.Run("CallAtPanicsOnPast", func(t *testing.T) {
		e := NewEngine()
		atFn(e, 10, func() {})
		e.Run()
		defer func() {
			if recover() == nil {
				t.Fatal("CallAt in the past did not panic")
			}
		}()
		e.CallAt(9, func(any) {}, nil)
	})
	t.Run("CallPanicsOnNegativeDelay", func(t *testing.T) {
		e := NewEngine()
		defer func() {
			if recover() == nil {
				t.Fatal("negative Call delay did not panic")
			}
		}()
		e.Call(-1, func(any) {}, nil)
	})
}

// TestEngineCallDeliversArg pins the pooled form's payload plumbing and
// its interleaving with adapted closure events at one timestamp.
func TestEngineCallDeliversArg(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Call(5, func(a any) { got = append(got, a.(int)) }, 1)
	afterFn(e, 5, func() { got = append(got, 2) })
	e.Call(5, func(a any) { got = append(got, a.(int)) }, 3)
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("mixed-form events fired %v, want [1 2 3]", got)
	}
}

// TestEngineCallSteadyStateAllocs is the pooled path's contract: once
// the heap slice has grown, a schedule-fire cycle allocates nothing.
func TestEngineCallSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	fn := func(any) {}
	arg := e // any pointer payload
	if allocs := testing.AllocsPerRun(10_000, func() {
		e.Call(1, fn, arg)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("steady-state Call+Step allocates %.1f/op, want 0", allocs)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{4 * Second, "4.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if s := (2 * Second).Seconds(); s != 2 {
		t.Errorf("Seconds = %v, want 2", s)
	}
	if ms := (Millisecond + 500*Microsecond).Millis(); ms != 1.5 {
		t.Errorf("Millis = %v, want 1.5", ms)
	}
	if us := (3 * Microsecond).Micros(); us != 3 {
		t.Errorf("Micros = %v, want 3", us)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGUniformDuration(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		d := g.UniformDuration(10, 20)
		if d < 10 || d >= 20 {
			t.Fatalf("UniformDuration out of range: %v", d)
		}
	}
	if d := g.UniformDuration(5, 5); d != 5 {
		t.Fatalf("degenerate UniformDuration = %v, want 5", d)
	}
}

func TestRNGExponentialMean(t *testing.T) {
	g := NewRNG(2)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(g.Exponential(1000))
	}
	mean := sum / n
	if mean < 900 || mean > 1100 {
		t.Fatalf("exponential mean = %v, want ~1000", mean)
	}
}

func TestRNGBoolProbability(t *testing.T) {
	g := NewRNG(3)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("Bool(0.3) hit rate = %v", frac)
	}
}

func TestRNGZipfSkew(t *testing.T) {
	g := NewRNG(4)
	z := g.Zipf(1.2, 1000)
	counts := make(map[uint64]int)
	for i := 0; i < 10000; i++ {
		counts[z.Uint64()]++
	}
	// Rank 0 must dominate a mid-rank value under Zipf.
	if counts[0] <= counts[100] {
		t.Fatalf("zipf not skewed: rank0=%d rank100=%d", counts[0], counts[100])
	}
}
