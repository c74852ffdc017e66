package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ossd/internal/core"
	"ossd/internal/runner"
	"ossd/internal/stats"
	"ossd/internal/trace"
	"ossd/internal/workload"
)

// Options configures a Manager.
type Options struct {
	// Workers bounds concurrent simulations (<= 0: runner default).
	Workers int
	// Backlog bounds queued jobs (<= 0: 256). A submit past it is shed:
	// it fails with a counted ErrShed (HTTP 429), a clear "go away"
	// rather than a queue slot traded for latency.
	Backlog int
	// CacheEntries bounds the result cache (<= 0: 1024).
	CacheEntries int
	// SampleEvery sets the telemetry cadence in operations (<= 0: 1000).
	SampleEvery int
	// MaxCells guards campaign expansion: a campaign spec whose grid
	// exceeds it is rejected before any cell is enqueued (<= 0: 4096).
	MaxCells int
	// TenantQuotas caps how many jobs each submitting tenant class
	// (JobSpec.Tenant) may have occupying the worker pool — queued or
	// running — at once. A submit past the tenant's quota is rejected
	// with ErrTenantQuota (HTTP 429) and counted in /statsz, so one
	// tenant's burst cannot monopolize the pool. Tenants absent from the
	// map (including tenant 0) are unquotaed. Cached completions never
	// occupy the pool, so they are admitted regardless.
	TenantQuotas map[uint8]int
}

// Job is one submitted simulation and everything observable about it.
// All mutable fields are guarded by mu; cond broadcasts on every state
// or sample change so pollers and stream readers wake without spinning.
type Job struct {
	ID   string
	Spec JobSpec
	// key and identity are the spec's content address, computed once at
	// submit: identity is the canonical spec JSON, key its FNV-1a hash.
	key      uint64
	identity []byte

	mu     sync.Mutex
	cond   *sync.Cond
	status Status
	cached bool
	// cacheSource says where a cached payload came from: "local" (the
	// cache at submit) or "coalesced" (a single-flight waiter).
	cacheSource string
	errMsg      string
	result      []byte // rendered Result (renderResult), set when status == StatusDone
	samples     []Sample
	cancel      context.CancelFunc
	// Lifecycle timestamps (wall clock): submitted is set at Submit,
	// started when a worker picks the job up (zero for cache hits, which
	// never run), finished at the terminal transition.
	submitted time.Time
	started   time.Time
	finished  time.Time
	// evicted is set when the job's handle leaves the table. Attached
	// stream tails terminate on it instead of outliving the job they can
	// no longer be looked up by.
	evicted bool
}

// retainJobs bounds the job table: once it is full, each submit evicts
// the oldest terminal job (and its telemetry). Results live on in the
// cache; only the job-ID handle expires.
const retainJobs = 1024

// evict marks a terminal job's handle evicted and wakes its stream
// tails; a live job is left alone and reports false.
func (j *Job) evict() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.status.terminal() {
		return false
	}
	j.evicted = true
	j.cond.Broadcast()
	return true
}

// JobView is a job's serialized state (GET /jobs/{id}). Result holds the
// cached payload verbatim: the Result rendered once at completion,
// indented one level deep (prefix and indent "  ") as it sits in a view
// body, so identical specs yield byte-identical result fields. Result
// must stay the last field: writeView encodes the rest of the view and
// appends the stored bytes as its closing member. The lifecycle
// timestamps are wall clock (not simulated time): StartedAt is zero for
// cache hits, which complete without ever running; QueueWaitMs and
// RunMs are derived conveniences (zero until the phase they measure has
// completed).
type JobView struct {
	ID          string          `json:"id"`
	Status      Status          `json:"status"`
	Cached      bool            `json:"cached"`
	CacheSource string          `json:"cache_source,omitempty"`
	Error       string          `json:"error,omitempty"`
	Samples     int             `json:"samples"`
	SubmittedAt time.Time       `json:"submitted_at,omitzero"`
	StartedAt   time.Time       `json:"started_at,omitzero"`
	FinishedAt  time.Time       `json:"finished_at,omitzero"`
	QueueWaitMs float64         `json:"queue_wait_ms,omitempty"`
	RunMs       float64         `json:"run_ms,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// View snapshots the job under its lock.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.ID,
		Status:      j.status,
		Cached:      j.cached,
		CacheSource: j.cacheSource,
		Error:       j.errMsg,
		Samples:     len(j.samples),
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Result:      json.RawMessage(j.result),
	}
	if !j.started.IsZero() {
		v.QueueWaitMs = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
		if !j.finished.IsZero() {
			v.RunMs = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		}
	}
	return v
}

// addSample appends one telemetry observation.
func (j *Job) addSample(s Sample) {
	j.mu.Lock()
	j.samples = append(j.samples, s)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// Manager owns the job and campaign tables, the worker pool, and the
// result cache.
type Manager struct {
	opts  Options
	pool  *runner.Pool
	cache *cache

	jobs      *handles[*Job]
	campaigns *campaignManager

	// flightMu guards flights, the single-flight table: one entry per
	// cache key currently being computed (see flight.go).
	flightMu sync.Mutex
	flights  map[uint64]*flight

	// expSem serializes POST /experiments runs: experiments fan out
	// internally and are far heavier than jobs, so concurrent requests
	// past the bound are shed instead of stacking on handler goroutines.
	expSem chan struct{}

	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	running   atomic.Int64
	coalesced atomic.Uint64 // single-flight waiters collapsed onto a primary
	shedCt    atomic.Uint64 // submits shed on a full backlog

	// tenantMu guards tenantCt, the per-tenant job counters surfaced in
	// /statsz. Only nonzero tenants are tracked: tenant 0 is the legacy
	// untenanted default and stays out of the per-tenant view, the same
	// convention trace.Stats uses.
	tenantMu sync.Mutex
	tenantCt map[uint8]*tenantCounter

	// aggMu guards the duration aggregates: queue wait is recorded when
	// a worker picks a job up, run duration when a simulation completes.
	// Cache hits never run, so they appear in neither.
	aggMu     sync.Mutex
	queueWait stats.Mean
	runDur    stats.Mean
}

// New builds a Manager and starts its worker pool.
func New(opts Options) *Manager {
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 1000
	}
	if opts.Workers <= 0 {
		opts.Workers = runner.DefaultWorkers()
	}
	if opts.MaxCells <= 0 {
		opts.MaxCells = 4096
	}
	m := &Manager{
		opts:     opts,
		pool:     runner.NewPool(opts.Workers, opts.Backlog),
		cache:    newCache(opts.CacheEntries),
		jobs:     newHandles("job", retainJobs, (*Job).evict),
		flights:  map[uint64]*flight{},
		expSem:   make(chan struct{}, 1),
		tenantCt: map[uint8]*tenantCounter{},
	}
	m.campaigns = &campaignManager{
		jobs:     m,
		table:    newHandles("campaign", retainCampaigns, (*campaign).evict),
		inFlight: maxInFlight,
	}
	return m
}

// ErrShed is returned by Submit when the pool backlog is full: the
// service rejects explicitly (HTTP 429) instead of letting the caller
// queue behind the overload. Counted in /statsz.
var ErrShed = errors.New("simsvc: shedding load (pool backlog full)")

// ErrTenantQuota is returned by Submit when the spec's tenant already
// has its quota of jobs occupying the worker pool (Options.TenantQuotas).
// Counted per tenant in /statsz.
var ErrTenantQuota = errors.New("simsvc: tenant quota exceeded")

// tenantCounter accumulates one tenant's job counters.
type tenantCounter struct {
	submitted, completed, failed, quotaRejected int64
}

// tenantAdd applies f to tenant t's counter. Tenant 0 (untenanted) is
// not tracked.
func (m *Manager) tenantAdd(t uint8, f func(*tenantCounter)) {
	if t == 0 {
		return
	}
	m.tenantMu.Lock()
	c := m.tenantCt[t]
	if c == nil {
		c = &tenantCounter{}
		m.tenantCt[t] = c
	}
	f(c)
	m.tenantMu.Unlock()
}

// tenantInFlight counts tenant t's jobs occupying the pool: submitted
// and not yet terminal. Cached completions are terminal at submit and
// never counted.
func (m *Manager) tenantInFlight(t uint8) int {
	n := 0
	for _, job := range m.jobs.all() {
		if job.Spec.Tenant != t {
			continue
		}
		job.mu.Lock()
		if !job.status.terminal() {
			n++
		}
		job.mu.Unlock()
	}
	return n
}

// Submit validates a spec and enqueues it, returning the job record. A
// cache hit completes the job immediately — no worker, no simulation —
// with the memoized payload; a spec identical to one already in flight
// coalesces onto that computation instead of repeating it.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if q, ok := m.opts.TenantQuotas[spec.Tenant]; ok && q > 0 {
		if n := m.tenantInFlight(spec.Tenant); n >= q {
			m.tenantAdd(spec.Tenant, func(c *tenantCounter) { c.quotaRejected++ })
			return nil, fmt.Errorf("%w: tenant %d has %d jobs in flight (quota %d)",
				ErrTenantQuota, spec.Tenant, n, q)
		}
	}
	identity := spec.Canonical()
	if len(identity) > maxBodyBytes {
		// Canonical JSON spells out every field, so a small body can
		// canonicalize past the body cap. The identity is pinned in its
		// cache entry, so this bounds what one entry can hold.
		return nil, fmt.Errorf("simsvc: spec identity is %d bytes, over the %d-byte cap", len(identity), maxBodyBytes)
	}
	job := &Job{
		Spec:      spec,
		key:       identityKey(identity),
		identity:  identity,
		status:    StatusQueued,
		submitted: time.Now(),
	}
	job.cond = sync.NewCond(&job.mu)
	m.submitted.Add(1)
	m.tenantAdd(spec.Tenant, func(c *tenantCounter) { c.submitted++ })

	// A cache hit completes the job here and a coalesced waiter when its
	// primary resolves; neither needs a worker. Only the primary runs.
	if m.joinOrStartFlight(job) {
		ctx, cancel := context.WithCancel(context.Background())
		job.cancel = cancel // the job is not yet visible to Cancel
		if err := m.pool.Submit(func() { m.run(ctx, job) }); err != nil {
			if errors.Is(err, runner.ErrPoolSaturated) {
				m.shedCt.Add(1)
				err = ErrShed
			}
			// Any waiter that coalesced onto the rejected primary fails
			// with the same error.
			cancel()
			m.resolveFlight(job.key, nil, err)
			m.failed.Add(1)
			m.tenantAdd(spec.Tenant, func(c *tenantCounter) { c.failed++ })
			return nil, err
		}
	}
	// Only an accepted job enters the table: the caller of a rejected
	// submit never learns an ID, so a rejection must not grow it.
	m.jobs.add(job, &job.ID)
	return job, nil
}

// run executes one job on a worker: it builds the device,
// preconditions it, and drives the sampled workload. The payload lands
// in the cache and resolves the job's single-flight waiters.
func (m *Manager) run(ctx context.Context, job *Job) {
	job.mu.Lock()
	if job.status.terminal() {
		// Cancelled while still queued: Cancel already failed the job
		// (and counted it); the worker has nothing to do — but any
		// coalesced waiters must learn their primary died.
		job.mu.Unlock()
		m.resolveFlight(job.key, nil, context.Canceled)
		return
	}
	job.status = StatusRunning
	job.started = time.Now()
	wait := job.started.Sub(job.submitted)
	job.cond.Broadcast()
	job.mu.Unlock()
	m.aggMu.Lock()
	m.queueWait.Add(float64(wait) / float64(time.Millisecond))
	m.aggMu.Unlock()
	m.running.Add(1)
	defer m.running.Add(-1)

	res, err := m.simulate(ctx, job)
	var payload []byte
	if err == nil {
		payload, err = renderResult(res)
	}
	if err != nil {
		m.failJob(job, err.Error())
		m.resolveFlight(job.key, nil, err)
		return
	}
	m.cache.put(job.key, job.identity, payload)
	m.resolveFlight(job.key, payload, nil)
	// Account the completion before waking waiters, so a Wait caller
	// never reads Stats() a count behind the job it just saw finish.
	job.mu.Lock()
	job.result = payload
	job.status = StatusDone
	job.finished = time.Now()
	m.aggMu.Lock()
	m.runDur.Add(float64(job.finished.Sub(job.started)) / float64(time.Millisecond))
	m.aggMu.Unlock()
	m.countDone(job)
	job.cond.Broadcast()
	job.mu.Unlock()
}

// renderResult renders a job's Result once, as the exact bytes every
// view of the job carries: indented one level deep (prefix and indent
// "  "), as the "result" member of a view encoded with a two-space
// indent. The cache, the job, its coalesced waiters and later cache
// hits all share this one rendition, and writeView splices it into
// each view instead of re-encoding it. It is stored exact-size, since
// MarshalIndent's buffer keeps up to twice the slack.
func renderResult(res Result) ([]byte, error) {
	b, err := json.MarshalIndent(res, "  ", "  ")
	if err != nil {
		return nil, err
	}
	payload := make([]byte, len(b))
	copy(payload, b)
	return payload, nil
}

// simulate is the deterministic part of run: everything that feeds the
// result payload depends only on the spec.
func (m *Manager) simulate(ctx context.Context, job *Job) (Result, error) {
	spec := job.Spec
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	opts, err := spec.Options.build()
	if err != nil {
		return Result{}, err
	}
	if spec.Fault != nil {
		opts = append(opts, core.WithFault(spec.Fault))
	}
	if w := spec.tenantWeights(); w != nil {
		opts = append(opts, core.WithTenantWeights(w))
	}
	dev, err := core.Open(spec.Profile, opts...)
	if err != nil {
		return Result{}, err
	}
	if spec.PreconditionFrac > 0 {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if err := core.PreconditionFrac(dev, 1<<20, spec.PreconditionFrac); err != nil {
			return Result{}, err
		}
	}
	var stream trace.Stream
	if len(spec.Tenants) > 0 {
		stream, err = spec.tenantStream()
	} else {
		stream, err = workload.NewStream(spec.Workload, spec.Params)
	}
	if err != nil {
		return Result{}, err
	}
	if spec.OpLimit > 0 {
		stream = trace.Limit(stream, spec.OpLimit)
	}
	// A power-loss point truncates the measured run at its op count: the
	// stream simply ends there (the in-flight tail drains, the rest of
	// the workload is never issued), then recovery replays below.
	if pl := spec.Fault.PowerLossPoint(); pl != nil {
		if spec.OpLimit == 0 || int64(spec.OpLimit) > pl.AtOps {
			stream = trace.Limit(stream, int(pl.AtOps))
		}
	}
	// Shift trace timestamps past the preconditioning window and tally
	// the workload summary as ops flow by.
	var wl trace.Stats
	stream = trace.Tally(trace.Shift(stream, dev.Engine().Now()), &wl)

	start := dev.Engine().Now()
	before := dev.Metrics()
	if _, err := DriveSampled(ctx, dev, stream, m.opts.SampleEvery, job.addSample); err != nil {
		return Result{}, err
	}
	// After a power loss the device comes back and replays recovery: a
	// sequential scan whose reads land on the same metrics, so the
	// snapshot below reflects the truncated run plus the remount cost.
	if pl := spec.Fault.PowerLossPoint(); pl != nil {
		if err := core.ReplayRecovery(dev, pl.ReplayFrac); err != nil {
			return Result{}, err
		}
	}
	elapsed := (dev.Engine().Now() - start).Seconds()
	after := dev.Metrics()
	return Result{
		Spec:             spec,
		Snapshot:         after,
		Workload:         wl,
		SimulatedSeconds: elapsed,
		ReadMBps:         stats.Bandwidth(after.BytesRead-before.BytesRead, elapsed),
		WriteMBps:        stats.Bandwidth(after.BytesWritten-before.BytesWritten, elapsed),
	}, nil
}

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, bool) { return m.jobs.get(id) }

// Cancel requests cancellation of a queued or running job. A running
// job transitions to failed (context.Canceled) at its next op boundary;
// a job still waiting for a worker fails immediately — its waiters and
// stream tails would otherwise stay blocked until a worker got around
// to noticing the dead context, which behind a long backlog can be
// arbitrarily far in the future. Cancelling a terminal job is a no-op
// reporting false.
func (m *Manager) Cancel(id string) (bool, error) {
	job, ok := m.Job(id)
	if !ok {
		return false, fmt.Errorf("simsvc: no job %q", id)
	}
	job.mu.Lock()
	cancel := job.cancel
	live := !job.status.terminal()
	if live && job.status == StatusQueued {
		m.failLocked(job, context.Canceled.Error())
	}
	job.mu.Unlock()
	if !live {
		return false, nil
	}
	if cancel != nil {
		cancel()
	}
	return true, nil
}

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns its view. Holding the *Job keeps Wait valid even after the
// job's handle is evicted from the manager's table.
func (j *Job) Wait(ctx context.Context) (JobView, error) {
	j.mu.Lock()
	err := waitUntil(ctx, j.cond, func() bool { return j.status.terminal() })
	j.mu.Unlock()
	if err != nil {
		return JobView{}, err
	}
	return j.View(), nil
}

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns its view.
func (m *Manager) Wait(ctx context.Context, id string) (JobView, error) {
	job, ok := m.Job(id)
	if !ok {
		return JobView{}, fmt.Errorf("simsvc: no job %q", id)
	}
	return job.Wait(ctx)
}

// ErrJobEvicted terminates a sample stream whose job was evicted from
// the table while the stream was attached: the handle is gone, so the
// tail ends instead of outliving the job indefinitely.
var ErrJobEvicted = errors.New("simsvc: job evicted while streaming")

// StreamSamples replays the job's telemetry from the beginning and then
// tails it live, calling fn for each sample in order, until the job is
// terminal and fully delivered, fn errors (client gone), ctx ends, or
// the job is evicted from the table (ErrJobEvicted). A subscriber that
// connects after the job finished still receives every retained sample.
func (m *Manager) StreamSamples(ctx context.Context, id string, fn func(Sample) error) error {
	job, ok := m.Job(id)
	if !ok {
		return fmt.Errorf("simsvc: no job %q", id)
	}
	i := 0
	for {
		job.mu.Lock()
		err := waitUntil(ctx, job.cond, func() bool {
			return i < len(job.samples) || job.status.terminal() || job.evicted
		})
		pending := job.samples[i:]
		done := job.status.terminal()
		evicted := job.evicted
		job.mu.Unlock()
		if err != nil {
			return err
		}
		// Retained samples are never discarded: deliver what was
		// snapshotted before acting on eviction, and a stream that has
		// fully delivered a finished job completes cleanly even if the
		// handle was evicted while the last batch was on the wire.
		for _, s := range pending {
			if err := fn(s); err != nil {
				return err
			}
			i++
		}
		if done && len(pending) == 0 {
			return nil
		}
		if evicted {
			return ErrJobEvicted
		}
	}
}

// DurationAgg summarizes a population of wall-clock durations in
// milliseconds (GET /statsz).
type DurationAgg struct {
	N      uint64  `json:"n"`
	MeanMs float64 `json:"mean_ms"`
	MinMs  float64 `json:"min_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// durationAgg snapshots a stats.Mean of millisecond samples.
func durationAgg(m stats.Mean) DurationAgg {
	return DurationAgg{N: m.N(), MeanMs: m.Mean(), MinMs: m.Min(), MaxMs: m.Max()}
}

// Stats is the service's aggregate state (GET /statsz). QueueWait
// covers every job a worker picked up (submit → start); Run covers
// completed simulations (start → done); cache hits appear in neither.
// Campaigns holds the campaign counters.
type Stats struct {
	Workers       int   `json:"workers"`
	SampleEvery   int   `json:"sample_every"`
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsRunning   int64 `json:"jobs_running"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	// JobsShed counts submits shed on a full backlog (HTTP 429).
	JobsShed uint64 `json:"jobs_shed"`
	// Coalesced counts single-flight waiters: jobs that attached to an
	// identical in-flight computation instead of simulating.
	Coalesced uint64        `json:"coalesced"`
	QueueWait DurationAgg   `json:"queue_wait"`
	Run       DurationAgg   `json:"run"`
	Cache     CacheStats    `json:"cache"`
	Campaigns CampaignStats `json:"campaigns"`
	// Tenants are the per-tenant job counters, in tenant order, one entry
	// per nonzero tenant class that has submitted (or been quota-rejected)
	// since startup. Absent while every job is untenanted, so the legacy
	// /statsz payload is unchanged.
	Tenants []TenantJobStats `json:"tenants,omitempty"`
}

// TenantJobStats is one tenant class's job counters (GET /statsz).
type TenantJobStats struct {
	Tenant    int   `json:"tenant"`
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// InFlight counts the tenant's jobs currently occupying the pool
	// (queued or running) — the number the tenant's quota bounds.
	InFlight int `json:"in_flight"`
	// QuotaRejected counts submits refused with ErrTenantQuota.
	QuotaRejected int64 `json:"quota_rejected"`
	// Quota echoes the tenant's configured in-flight cap (0 = none).
	Quota int `json:"quota,omitempty"`
}

// Stats reports the manager's counters.
func (m *Manager) Stats() Stats {
	m.aggMu.Lock()
	queueWait, runDur := m.queueWait, m.runDur
	m.aggMu.Unlock()
	return Stats{
		Workers:       m.opts.Workers,
		SampleEvery:   m.opts.SampleEvery,
		JobsSubmitted: m.submitted.Load(),
		JobsRunning:   m.running.Load(),
		JobsCompleted: m.completed.Load(),
		JobsFailed:    m.failed.Load(),
		JobsShed:      m.shedCt.Load(),
		Coalesced:     m.coalesced.Load(),
		QueueWait:     durationAgg(queueWait),
		Run:           durationAgg(runDur),
		Cache:         m.cache.stats(),
		Campaigns:     m.campaigns.stats(),
		Tenants:       m.tenantStats(),
	}
}

// tenantStats snapshots the per-tenant counters in tenant order.
func (m *Manager) tenantStats() []TenantJobStats {
	m.tenantMu.Lock()
	ids := make([]int, 0, len(m.tenantCt))
	for t := range m.tenantCt {
		ids = append(ids, int(t))
	}
	sort.Ints(ids)
	out := make([]TenantJobStats, 0, len(ids))
	for _, id := range ids {
		c := m.tenantCt[uint8(id)]
		out = append(out, TenantJobStats{
			Tenant:        id,
			Submitted:     c.submitted,
			Completed:     c.completed,
			Failed:        c.failed,
			QuotaRejected: c.quotaRejected,
			Quota:         m.opts.TenantQuotas[uint8(id)],
		})
	}
	m.tenantMu.Unlock()
	for i := range out {
		out[i].InFlight = m.tenantInFlight(uint8(out[i].Tenant))
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// CancelAll cancels every live campaign and every queued and running
// job: each job stops at its next op boundary and reports failed,
// waking its waiters and stream subscribers. Called ahead of HTTP
// shutdown so blocked ?wait=1 and /stream handlers complete with
// responses instead of being cut off.
func (m *Manager) CancelAll() {
	for _, c := range m.campaigns.table.all() {
		_, _ = m.campaigns.cancel(c.ID)
	}
	for _, job := range m.jobs.all() {
		job.mu.Lock()
		if cancel := job.cancel; cancel != nil && !job.status.terminal() {
			cancel()
		}
		job.mu.Unlock()
	}
}

// Close shuts the manager down gracefully: campaigns and in-flight jobs
// are cancelled (jobs stop at their next op boundary and report failed),
// the queue drains, and the workers exit.
func (m *Manager) Close() {
	m.CancelAll()
	m.pool.Close()
}
