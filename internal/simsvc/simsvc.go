// Package simsvc is the simulation-as-a-service subsystem: it turns the
// library's deterministic what-if engine — any registered device profile
// driven by any named workload generator — into an on-demand job service.
// Four parts compose it:
//
//   - a job manager (Manager): submit a JobSpec, get a job ID; jobs fan
//     out over a bounded worker pool (internal/runner.Pool) with context
//     cancellation, per-job status, and graceful shutdown;
//   - campaigns, the paper's grids as first-class objects: a campaign
//     spec is a JobSpec template plus named axes that expands into a
//     canonically ordered cartesian product of cells (expand.go); a
//     feeder submits the cells as jobs through the same Manager and
//     tracks progress (campaign.go); any two axes and a result metric
//     render as a comparison table (table.go);
//   - a content-addressed result cache: the canonical JSON encoding of a
//     JobSpec is FNV-hashed and completed result payloads are memoized
//     under an LRU bound, so identical requests are served from memory
//     byte-for-byte — sound because simulations are deterministic;
//   - a telemetry stream: while a job runs, a sampler observes the
//     device every N operations and emits core.Snapshot samples, served
//     as NDJSON over GET /jobs/{id}/stream.
//
// One Manager owns all of it; cmd/simd wraps its HTTP handler (see
// Manager.Handler) in a server.
package simsvc

import (
	"encoding/json"
	"fmt"

	"ossd/internal/core"
	"ossd/internal/fault"
	"ossd/internal/ftl"
	"ossd/internal/sched"
	"ossd/internal/trace"
	"ossd/internal/workload"
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued means the job is waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning means a worker is driving the simulation.
	StatusRunning Status = "running"
	// StatusDone means the job completed and its result is available.
	StatusDone Status = "done"
	// StatusFailed means the job errored or was cancelled.
	StatusFailed Status = "failed"
)

// terminal reports whether a job in this state will never change again.
func (s Status) terminal() bool { return s == StatusDone || s == StatusFailed }

// maxCapacityBytes caps options.capacity_bytes and every
// params.capacity_bytes of a spec. A flash device's FTL arrays and the
// postmark file-system bitmap grow with capacity, and an allocation
// that exhausts memory kills the whole process, not just one job. At
// the cap the largest flash build takes about 43 MB of heap.
const maxCapacityBytes = 16 << 30

// checkCapacity rejects a capacity_bytes field above maxCapacityBytes.
func checkCapacity(field string, bytes int64) error {
	if bytes > maxCapacityBytes {
		return fmt.Errorf("simsvc: %s.capacity_bytes %d exceeds the %d-byte cap", field, bytes, int64(maxCapacityBytes))
	}
	return nil
}

// ProfileOptions is the JSON-friendly subset of the registry's
// functional options a job may apply to its device profile.
type ProfileOptions struct {
	// CapacityBytes scales the device (core.WithCapacity), up to
	// maxCapacityBytes.
	CapacityBytes int64 `json:"capacity_bytes,omitempty"`
	// Scheme selects the FTL mapping: "page", "block", or "hybrid".
	Scheme string `json:"scheme,omitempty"`
	// StripeBytes selects full-stripe layout / RAID stripe unit.
	StripeBytes int64 `json:"stripe_bytes,omitempty"`
	// Scheduler selects the dispatch policy: "fcfs" or "swtf".
	Scheduler string `json:"scheduler,omitempty"`
	// Informed enables informed cleaning (§3.5).
	Informed bool `json:"informed,omitempty"`
	// PriorityAware enables priority-aware cleaning (§3.6).
	PriorityAware bool `json:"priority_aware,omitempty"`
	// MaxPending bounds outstanding requests while the job's workload is
	// driven (core.WithMaxPending): admission control so an open-loop
	// arrival storm paces to the device instead of accumulating
	// unbounded queue state on a worker.
	MaxPending int `json:"max_pending,omitempty"`
}

// build translates the JSON options into registry options.
func (o ProfileOptions) build() ([]core.Option, error) {
	var opts []core.Option
	if err := checkCapacity("options", o.CapacityBytes); err != nil {
		return nil, err
	}
	if o.CapacityBytes > 0 {
		opts = append(opts, core.WithCapacity(o.CapacityBytes))
	}
	if o.Scheme != "" {
		s, err := ftl.ParseScheme(o.Scheme)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithScheme(s))
	}
	if o.StripeBytes > 0 {
		opts = append(opts, core.WithStripe(o.StripeBytes))
	}
	switch o.Scheduler {
	case "":
	case "fcfs":
		opts = append(opts, core.WithScheduler(sched.FCFS))
	case "swtf":
		opts = append(opts, core.WithScheduler(sched.SWTF))
	default:
		return nil, fmt.Errorf("simsvc: unknown scheduler %q", o.Scheduler)
	}
	if o.Informed {
		opts = append(opts, core.WithInformed(true))
	}
	if o.PriorityAware {
		opts = append(opts, core.WithPriorityAware(true))
	}
	if o.MaxPending < 0 {
		return nil, fmt.Errorf("simsvc: negative max pending %d", o.MaxPending)
	}
	if o.MaxPending > 0 {
		opts = append(opts, core.WithMaxPending(o.MaxPending))
	}
	return opts, nil
}

// TenantSpec is one tenant's share of a multi-tenant simulation: which
// generator drives it, how its arrivals are shaped, and how much of the
// device's dispatch bandwidth it is entitled to.
type TenantSpec struct {
	// Tenant is the class ID (1-255; 0 is reserved for untagged ops).
	Tenant uint8 `json:"tenant"`
	// Workload names this tenant's generator; empty inherits the job's.
	Workload string `json:"workload,omitempty"`
	// Params parameterizes the tenant's generator; nil inherits the
	// job's. Give tenants distinct seeds for independent streams.
	Params *workload.GenParams `json:"params,omitempty"`
	// Weight is the tenant's fair-share dispatch weight. Any positive
	// weight in the array engages weighted deficit-round-robin on the
	// device queue (flash profiles only; tenants left at 0 weigh 1);
	// all-zero weights leave dispatch in legacy single-tenant mode.
	Weight float64 `json:"weight,omitempty"`
	// Modulation shapes the tenant's arrivals (bursty, diurnal, or a
	// plain rate scale); nil passes the generator's timing through.
	Modulation *trace.Modulation `json:"modulation,omitempty"`
}

// JobSpec is one simulation request: which device, how it is tuned,
// which workload drives it, and how far. Specs are the cache identity —
// two equal specs produce byte-identical results.
type JobSpec struct {
	// Profile names a registered device profile (GET /profiles).
	Profile string `json:"profile"`
	// Options tunes the profile before the device is built.
	Options ProfileOptions `json:"options"`
	// Workload names a registered generator (GET /workloads).
	Workload string `json:"workload"`
	// Params parameterizes the generator, including the seed.
	Params workload.GenParams `json:"params"`
	// Tenant is the submitting tenant class (0 = untenanted): the service
	// counts this tenant's jobs in /statsz and enforces its in-flight
	// quota (Options.TenantQuotas) at submit. It is an admission-control
	// identity, not a simulation parameter, so it is excluded from the
	// cache identity — tenants share byte-identical cached results.
	Tenant uint8 `json:"tenant,omitempty"`
	// Tenants, when non-empty, makes the simulated workload multi-tenant:
	// each entry's stream is tagged with its tenant ID, shaped by its
	// modulation, and interleaved into one timestamp-ordered arrival
	// stream (trace.MergeTenants). Positive weights additionally engage
	// fair-share dispatch on the device queue. Empty runs the legacy
	// single-stream workload.
	Tenants []TenantSpec `json:"tenants,omitempty"`
	// OpLimit caps the stream (0 = drive it to exhaustion).
	OpLimit int `json:"op_limit,omitempty"`
	// PreconditionFrac fills this fraction of the device before the
	// measured run (0 = start on a fresh device).
	PreconditionFrac float64 `json:"precondition_frac,omitempty"`
	// Fault attaches a fault plan (see internal/fault) to the device:
	// deterministic transient errors, element deaths, wear ceilings, and
	// power-loss points. A power-loss point truncates the measured run at
	// its op count and replays recovery before the snapshot is taken.
	// The plan is part of the cache identity: faulted and fault-free runs
	// of the same workload never share a result.
	Fault *fault.Plan `json:"fault,omitempty"`
}

// Validate checks that the spec names things that exist and that its
// knobs are in range, so bad requests fail at submit, not on a worker.
// Campaign expansion also calls it per expanded cell, so a bad axis
// value rejects the whole campaign before anything is enqueued.
func (s *JobSpec) Validate() error {
	prof, err := core.ProfileByName(s.Profile)
	if err != nil {
		return err
	}
	if !knownWorkload(s.Workload) {
		return fmt.Errorf("simsvc: unknown workload %q (have %v)", s.Workload, workload.Generators())
	}
	if _, err := s.Options.build(); err != nil {
		return err
	}
	if err := checkCapacity("params", s.Params.CapacityBytes); err != nil {
		return err
	}
	seen := map[uint8]bool{}
	weighted := false
	for i, ts := range s.Tenants {
		if ts.Tenant == 0 {
			return fmt.Errorf("simsvc: tenants[%d] has tenant 0 (reserved for untagged ops)", i)
		}
		if seen[ts.Tenant] {
			return fmt.Errorf("simsvc: duplicate tenant %d", ts.Tenant)
		}
		seen[ts.Tenant] = true
		if ts.Workload != "" && !knownWorkload(ts.Workload) {
			return fmt.Errorf("simsvc: tenant %d: unknown workload %q", ts.Tenant, ts.Workload)
		}
		if ts.Params != nil {
			if err := checkCapacity(fmt.Sprintf("tenants[%d].params", i), ts.Params.CapacityBytes); err != nil {
				return err
			}
		}
		if ts.Weight < 0 {
			return fmt.Errorf("simsvc: tenant %d: negative weight %v", ts.Tenant, ts.Weight)
		}
		if ts.Weight > 0 {
			weighted = true
		}
		if ts.Modulation != nil {
			if err := ts.Modulation.Validate(); err != nil {
				return fmt.Errorf("simsvc: tenant %d: %w", ts.Tenant, err)
			}
		}
	}
	if weighted && prof.Kind != core.KindSSD && prof.Kind != core.KindOSD {
		return fmt.Errorf("simsvc: tenant weights need a flash profile, %q is %s", s.Profile, prof.Kind)
	}
	if s.OpLimit < 0 {
		return fmt.Errorf("simsvc: negative op limit %d", s.OpLimit)
	}
	if s.PreconditionFrac < 0 || s.PreconditionFrac > 1 {
		return fmt.Errorf("simsvc: precondition fraction %v out of [0, 1]", s.PreconditionFrac)
	}
	if err := s.Fault.Validate(); err != nil {
		return err
	}
	return nil
}

// knownWorkload reports whether name is a registered generator.
func knownWorkload(name string) bool {
	for _, have := range workload.Generators() {
		if have == name {
			return true
		}
	}
	return false
}

// tenantWeights collects the spec's positive fair-share weights; nil
// when no tenant sets one (legacy dispatch).
func (s JobSpec) tenantWeights() map[uint8]float64 {
	var w map[uint8]float64
	for _, ts := range s.Tenants {
		if ts.Weight > 0 {
			if w == nil {
				w = map[uint8]float64{}
			}
			w[ts.Tenant] = ts.Weight
		}
	}
	return w
}

// tenantStream builds the multi-tenant arrival stream: one generator
// stream per tenant, tagged, shaped, and merged in timestamp order.
func (s JobSpec) tenantStream() (trace.Stream, error) {
	srcs := make([]trace.TenantStream, 0, len(s.Tenants))
	for _, ts := range s.Tenants {
		name := ts.Workload
		if name == "" {
			name = s.Workload
		}
		params := s.Params
		if ts.Params != nil {
			params = *ts.Params
		}
		st, err := workload.NewStream(name, params)
		if err != nil {
			return nil, err
		}
		src := trace.TenantStream{Tenant: ts.Tenant, Stream: st}
		if ts.Modulation != nil {
			src.Mod = *ts.Modulation
		}
		srcs = append(srcs, src)
	}
	return trace.MergeTenants(srcs)
}

// Canonical is the spec's cache identity: its canonical JSON encoding
// (struct fields marshal in declaration order, so equal specs encode
// equally). The identity bytes — not the 64-bit hash of them — are what
// two specs must share to share a cache entry; they are stored with
// each entry and compared on every hit, so a colliding key is a miss,
// never another spec's payload.
func (s JobSpec) Canonical() []byte {
	// The submitting tenant is an admission-control identity, not a
	// simulation parameter, so tenants share cached results. s is a copy.
	s.Tenant = 0
	canonical, err := json.Marshal(s)
	if err != nil {
		// Specs are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("simsvc: marshal spec: %v", err))
	}
	return canonical
}

// Result is a completed job's payload: the spec it answers, the final
// device snapshot (with tail-latency percentiles), the workload summary,
// and window bandwidths over the driven (post-precondition) phase.
type Result struct {
	Spec             JobSpec       `json:"spec"`
	Snapshot         core.Snapshot `json:"snapshot"`
	Workload         trace.Stats   `json:"workload"`
	SimulatedSeconds float64       `json:"simulated_seconds"`
	ReadMBps         float64       `json:"read_mbps"`
	WriteMBps        float64       `json:"write_mbps"`
}

// Sample is one telemetry observation taken while a job runs.
type Sample struct {
	// Ops counts operations pulled from the workload stream so far.
	Ops int64 `json:"ops"`
	// SimulatedSeconds is the device clock at observation time.
	SimulatedSeconds float64 `json:"simulated_seconds"`
	// Snapshot is the device's metrics at observation time.
	Snapshot core.Snapshot `json:"snapshot"`
}

// ExperimentResult is the service (and cmd/repro -json) encoding of one
// paper experiment's run.
type ExperimentResult struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Seed        int64  `json:"seed"`
	// Report is the experiment's rendering in the paper's format.
	Report string `json:"report,omitempty"`
	Error  string `json:"error,omitempty"`
}
