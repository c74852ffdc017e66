package simsvc

import (
	"time"
)

// flight is one in-progress computation of a cache identity. The first
// job to miss the cache for a key becomes the flight's primary and runs
// the simulation; every identical spec submitted while it is in flight
// — a concurrent POST from another client, an overlapping campaign
// cell — attaches as a waiter instead of burning a worker. When the
// primary resolves, every waiter receives the byte-identical payload
// and counts as a cache hit: N concurrent identical requests cost
// exactly one simulation.
type flight struct {
	waiters []*Job
}

// joinOrStartFlight is the submit-time cache/single-flight gate, run
// under flightMu so the three outcomes are atomic against resolution:
//
//   - the cache has the identity → complete the job now ("local" hit);
//   - a flight is computing it → attach as a waiter ("coalesced");
//   - neither → register a new flight; the caller runs the primary.
//
// It reports whether the job became the primary (the caller must
// guarantee resolveFlight runs on every terminal path).
func (m *Manager) joinOrStartFlight(job *Job) (primary bool) {
	m.flightMu.Lock()
	if payload, ok := m.cache.get(job.key, job.identity); ok {
		m.flightMu.Unlock()
		m.completeCached(job, payload, "local")
		return false
	}
	if f, ok := m.flights[job.key]; ok {
		f.waiters = append(f.waiters, job)
		m.flightMu.Unlock()
		m.coalesced.Add(1)
		return false
	}
	m.flights[job.key] = &flight{}
	m.flightMu.Unlock()
	return true
}

// resolveFlight settles a key's flight: the payload, or on failure
// (payload nil) the primary's error, is delivered to every waiter. The
// caller has already stored a successful payload in the cache, so the
// unregister-then-deliver order closes the race with joinOrStartFlight
// — a submit that misses the flight map afterwards finds the cache
// populated instead.
func (m *Manager) resolveFlight(key uint64, payload []byte, err error) {
	m.flightMu.Lock()
	f, ok := m.flights[key]
	if ok {
		delete(m.flights, key)
	}
	m.flightMu.Unlock()
	if !ok {
		return
	}
	for _, w := range f.waiters {
		if payload != nil {
			m.completeCached(w, payload, "coalesced")
		} else {
			m.failJob(w, err.Error())
		}
	}
}

// completeCached finishes a job with a memoized payload — a cache hit
// at submit or a coalesced single-flight waiter.
// Cached completions are terminal without ever simulating, so they
// never feed the run-duration aggregate. Jobs already terminal (a
// cancelled waiter) are left alone.
func (m *Manager) completeCached(job *Job, payload []byte, source string) {
	job.mu.Lock()
	if job.status.terminal() {
		job.mu.Unlock()
		return
	}
	job.cached = true
	job.cacheSource = source
	job.result = payload
	job.status = StatusDone
	job.finished = time.Now()
	m.countDone(job)
	job.cond.Broadcast()
	job.mu.Unlock()
}

// failJob fails a job that is not yet terminal (a no-op otherwise).
func (m *Manager) failJob(job *Job, msg string) {
	job.mu.Lock()
	if !job.status.terminal() {
		m.failLocked(job, msg)
	}
	job.mu.Unlock()
}

// failLocked (job.mu held) marks the job failed and counts it before
// waking its waiters, so a Wait caller never reads Stats() a count
// behind the job it just saw fail.
func (m *Manager) failLocked(job *Job, msg string) {
	job.status = StatusFailed
	job.errMsg = msg
	job.finished = time.Now()
	m.failed.Add(1)
	m.tenantAdd(job.Spec.Tenant, func(c *tenantCounter) { c.failed++ })
	job.cond.Broadcast()
}

// countDone (job.mu held) counts a job that just completed.
func (m *Manager) countDone(job *Job) {
	m.completed.Add(1)
	m.tenantAdd(job.Spec.Tenant, func(c *tenantCounter) { c.completed++ })
}
