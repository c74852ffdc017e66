package runner

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func squares(n int) []Spec[int] {
	specs := make([]Spec[int], n)
	for i := range specs {
		i := i
		specs[i] = Spec[int]{
			Name: fmt.Sprintf("sq%d", i),
			Run:  func() (int, error) { return i * i, nil },
		}
	}
	return specs
}

func TestRunOrderIndependentOfWorkers(t *testing.T) {
	want, err := Run(squares(37), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 100} {
		got, err := Run(squares(37), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: %v != %v", workers, got, want)
		}
	}
}

func TestRunActuallyParallel(t *testing.T) {
	var inFlight, peak atomic.Int32
	var mu sync.Mutex
	specs := make([]Spec[int], 8)
	for i := range specs {
		specs[i] = Spec[int]{Name: "p", Run: func() (int, error) {
			n := inFlight.Add(1)
			mu.Lock()
			if n > peak.Load() {
				peak.Store(n)
			}
			mu.Unlock()
			time.Sleep(20 * time.Millisecond)
			inFlight.Add(-1)
			return 0, nil
		}}
	}
	if _, err := Run(specs, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d, want > 1", peak.Load())
	}
}

func TestRunReturnsFirstErrorBySpecOrder(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	specs := []Spec[int]{
		{Name: "ok", Run: func() (int, error) { return 1, nil }},
		// The earlier-indexed failure is slower; Run must still report it.
		{Name: "slow-fail", Run: func() (int, error) {
			time.Sleep(30 * time.Millisecond)
			return 0, errA
		}},
		{Name: "fast-fail", Run: func() (int, error) { return 0, errB }},
	}
	_, err := Run(specs, Options{Workers: 3})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want wrapped %v", err, errA)
	}
}

func TestRunAllRecordsEverySpec(t *testing.T) {
	boom := errors.New("boom")
	specs := []Spec[string]{
		{Name: "x", Run: func() (string, error) { return "vx", nil }},
		{Name: "y", Run: func() (string, error) { return "", boom }},
		{Name: "z", Run: func() (string, error) { return "vz", nil }},
	}
	outs := RunAll(specs, Options{Workers: 2})
	if len(outs) != 3 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	if outs[0].Value != "vx" || outs[2].Value != "vz" {
		t.Fatalf("values out of order: %+v", outs)
	}
	if !errors.Is(outs[1].Err, boom) || outs[1].Name != "y" {
		t.Fatalf("middle outcome: %+v", outs[1])
	}
}

func TestRunEmptyAndOnStart(t *testing.T) {
	if vals, err := Run([]Spec[int]{}, Options{}); err != nil || len(vals) != 0 {
		t.Fatalf("empty batch: %v %v", vals, err)
	}
	var mu sync.Mutex
	started := map[string]bool{}
	specs := squares(5)
	if _, err := Run(specs, Options{Workers: 2, OnStart: func(name string) {
		mu.Lock()
		started[name] = true
		mu.Unlock()
	}}); err != nil {
		t.Fatal(err)
	}
	if len(started) != 5 {
		t.Fatalf("OnStart saw %d specs, want 5", len(started))
	}
}

func TestDefaultWorkersOverride(t *testing.T) {
	orig := DefaultWorkers()
	if orig < 1 {
		t.Fatalf("default workers %d", orig)
	}
	runtime.GOMAXPROCS(orig + 2)
	if DefaultWorkers() != orig+2 {
		t.Fatalf("GOMAXPROCS override ignored: %d", DefaultWorkers())
	}
	runtime.GOMAXPROCS(orig)
	if DefaultWorkers() != orig {
		t.Fatalf("reset ignored: %d", DefaultWorkers())
	}
}
