// Package runner executes independent simulation specs on a worker pool.
// Every sim.Engine is single-threaded, but distinct engines share
// nothing, so a batch of experiments — one device, one workload, one
// seed each — is embarrassingly parallel. The runner fans specs out
// across GOMAXPROCS goroutines and returns results in spec order, never
// completion order, so a batch's output is byte-identical regardless of
// worker count.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Spec describes one independent simulation: identity metadata (name,
// device profile, workload, seed) plus the closure that builds and runs
// it. Run must not share mutable state with any other spec; it typically
// constructs a fresh device on a fresh engine, drives a workload, and
// returns the measurement.
type Spec[T any] struct {
	// Name identifies the spec in errors and progress output.
	Name string
	// Profile and Workload label the device profile and workload driven,
	// for reporting; the runner does not interpret them.
	Profile, Workload string
	// Seed is the random seed the spec runs with, for reporting.
	Seed int64
	// Run executes the simulation.
	Run func() (T, error)
}

// Outcome pairs a spec with what happened when it ran.
type Outcome[T any] struct {
	// Name echoes the spec's Name.
	Name string
	// Value is the spec's result; zero if Err is set.
	Value T
	// Err is the spec's failure, if any.
	Err error
	// Elapsed is wall-clock execution time (diagnostic only; simulated
	// time lives inside Value).
	Elapsed time.Duration
}

// Options configures a batch.
type Options struct {
	// Workers caps concurrency; <= 0 means DefaultWorkers().
	Workers int
	// OnStart, if set, is called as each spec begins executing. It runs
	// on worker goroutines and must be safe for concurrent use.
	OnStart func(name string)
}

// DefaultWorkers reports the worker count used when Options.Workers is
// unset: GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// RunAll executes every spec and returns one Outcome per spec, index-
// aligned with the input. Specs are claimed in order but may finish in
// any order; the returned slice's order never depends on timing.
func RunAll[T any](specs []Spec[T], opts Options) []Outcome[T] {
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	out := make([]Outcome[T], len(specs))
	if len(specs) == 0 {
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				s := specs[i]
				if opts.OnStart != nil {
					opts.OnStart(s.Name)
				}
				start := time.Now()
				v, err := s.Run()
				if err != nil {
					// Enforce the zero-on-error contract even when Run
					// returns a partial value alongside its error.
					var zero T
					v = zero
				}
				out[i] = Outcome[T]{Name: s.Name, Value: v, Err: err, Elapsed: time.Since(start)}
			}
		}()
	}
	wg.Wait()
	return out
}

// describe renders a spec's identity for error messages.
func (s *Spec[T]) describe() string {
	out := fmt.Sprintf("%q", s.Name)
	if s.Profile != "" {
		out += " profile=" + s.Profile
	}
	if s.Workload != "" {
		out += " workload=" + s.Workload
	}
	return fmt.Sprintf("%s seed=%d", out, s.Seed)
}

// Run executes every spec and returns the values in spec order. If any
// spec fails, it returns the first failure by spec order (deterministic
// even when a later-indexed spec fails first in wall time), identified
// by the spec's name, profile, workload, and seed.
func Run[T any](specs []Spec[T], opts Options) ([]T, error) {
	outs := RunAll(specs, opts)
	vals := make([]T, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return nil, fmt.Errorf("runner: spec %s: %w", specs[i].describe(), o.Err)
		}
		vals[i] = o.Value
	}
	return vals, nil
}
