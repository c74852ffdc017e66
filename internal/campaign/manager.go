package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ossd/internal/runner"
	"ossd/internal/simsvc"
	"ossd/internal/stats"
)

// Options configures a Manager.
type Options struct {
	// MaxCells guards expansion (<= 0: 4096). A Spec.MaxCells can lower
	// it per campaign but never raise it.
	MaxCells int
}

const (
	// maxInFlight bounds how many of one campaign's cells are
	// outstanding in the job manager at once, so a large campaign feeds
	// the shared pool instead of flooding its backlog.
	maxInFlight = 32
	// retainCampaigns bounds the campaign table: once full, each submit
	// evicts the oldest terminal campaigns. Cell results live on in the
	// job manager's cache; only the campaign handle expires.
	retainCampaigns = 64
)

// CellResult is one cell's observable outcome, the per-cell payload of
// GET /campaigns/{id}/stream. Result holds the job's payload verbatim
// (a simsvc.Result), so equal specs yield byte-identical result fields.
type CellResult struct {
	Index  int             `json:"index"`
	Coords []AxisValue     `json:"coords"`
	JobID  string          `json:"job_id,omitempty"`
	Status simsvc.Status   `json:"status"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// cellState is a Cell plus everything learned while running it.
type cellState struct {
	*Cell
	job     *simsvc.Job // nil until submitted
	settled bool
	view    simsvc.JobView // the terminal outcome, once settled
}

// result snapshots the cell as a CellResult (campaign lock held).
func (c *cellState) resultView() CellResult {
	r := CellResult{
		Index:  c.Index,
		Coords: c.Coords,
		Status: c.view.Status,
		Cached: c.view.Cached,
		Error:  c.view.Error,
		Result: c.view.Result,
	}
	if c.job != nil {
		r.JobID = c.job.ID
	}
	return r
}

// Campaign is one submitted sweep. All mutable state is guarded by mu;
// cond broadcasts whenever a cell settles, the campaign finishes, or
// the handle is evicted, so progress waiters and stream tails wake
// without spinning.
type Campaign struct {
	ID      string
	axes    []string
	created time.Time

	mu        sync.Mutex
	cond      *sync.Cond
	cells     []*cellState
	done      int
	failed    int
	cacheHits int
	cancelled bool
	evicted   bool
	finished  time.Time
	// shed counts submit attempts the job manager rejected in shed
	// mode; the feeder retried them, so cells still complete, but the
	// count is the campaign's view of service overload.
	shed int
	// runDur accumulates observed wall-clock run durations of the
	// campaign's simulated (non-cached) cells, feeding the ETA.
	runDur stats.Mean
}

// terminalLocked reports whether the campaign has finished: every cell
// settled AND the feeder ran finish(), so the finished timestamp and
// manager counters are in place before waiters observe the terminal
// state (mu held).
func (c *Campaign) terminalLocked() bool { return !c.finished.IsZero() }

// evict marks a terminal campaign's handle evicted and wakes its stream
// tails; a running campaign is left alone and reports false.
func (c *Campaign) evict() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.terminalLocked() {
		return false
	}
	c.evicted = true
	c.cond.Broadcast()
	return true
}

// isCancelled reports whether cancellation was requested.
func (c *Campaign) isCancelled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cancelled
}

// Progress is a campaign's aggregate state (GET /campaigns/{id}).
// CacheHits counts done cells served from the result cache (a subset of
// Done). ETASeconds extrapolates from the mean observed run duration of
// the campaign's simulated cells across the job manager's workers; it
// is zero until the first simulated cell completes.
type Progress struct {
	ID             string   `json:"id"`
	Status         string   `json:"status"` // running | done | cancelled
	Axes           []string `json:"axes"`
	Total          int      `json:"total"`
	Queued         int      `json:"queued"`
	Running        int      `json:"running"`
	Done           int      `json:"done"`
	Failed         int      `json:"failed"`
	CacheHits      int      `json:"cache_hits"`
	Shed           int      `json:"shed,omitempty"`
	ElapsedSeconds float64  `json:"elapsed_seconds"`
	ETASeconds     float64  `json:"eta_seconds,omitempty"`
}

// Manager owns the campaign table and feeds cells through the job
// manager.
type Manager struct {
	jobs      *simsvc.Manager
	opts      Options
	campaigns *simsvc.Handles[*Campaign]
	// inFlight is the feeder window, maxInFlight outside tests.
	inFlight int

	submitted   atomic.Int64
	completed   atomic.Int64
	cancelledCt atomic.Int64
	cellsTotal  atomic.Int64
	cellsDone   atomic.Int64
	cellsFailed atomic.Int64
	cellsCached atomic.Int64
	cellsShed   atomic.Int64
}

// New builds a Manager over the job manager and registers its counters
// under "campaigns" in the job manager's /statsz.
func New(jobs *simsvc.Manager, opts Options) *Manager {
	if opts.MaxCells <= 0 {
		opts.MaxCells = 4096
	}
	m := &Manager{
		jobs:      jobs,
		opts:      opts,
		campaigns: simsvc.NewHandles("campaign", retainCampaigns, (*Campaign).evict),
		inFlight:  maxInFlight,
	}
	jobs.SetCampaignStats(func() any { return m.Stats() })
	return m
}

// Submit expands the spec and starts the campaign's feeder. Expansion
// errors (bad axis, guard exceeded, invalid cell spec) reject the whole
// campaign; after Submit returns, cells fail only individually.
func (m *Manager) Submit(spec Spec) (*Campaign, error) {
	cells, err := Expand(spec, m.opts.MaxCells)
	if err != nil {
		return nil, err
	}
	c := &Campaign{created: time.Now(), cells: make([]*cellState, len(cells))}
	c.cond = sync.NewCond(&c.mu)
	for _, ax := range spec.Axes {
		c.axes = append(c.axes, ax.Name)
	}
	for i, cell := range cells {
		c.cells[i] = &cellState{Cell: cell}
	}

	m.campaigns.Add(c, &c.ID)
	m.submitted.Add(1)
	m.cellsTotal.Add(int64(len(cells)))

	go m.run(c)
	return c, nil
}

// run is the campaign's feeder: submit cells in canonical order under
// the in-flight window, settling each as its job terminates. Cells that
// repeat an earlier cell's identity (a tenant axis) need no
// ordering here: the job manager coalesces each onto its primary's
// in-flight run, or serves it from the cache once that run settled, so
// there is one simulation per distinct cell while the feeder keeps the
// pool busy.
func (m *Manager) run(c *Campaign) {
	sem := make(chan struct{}, m.inFlight)
	var wg sync.WaitGroup
	for i, cell := range c.cells {
		if c.isCancelled() {
			// Cells the feeder never reached settle as failed.
			for ; i < len(c.cells); i++ {
				m.settle(c, i, simsvc.JobView{Status: simsvc.StatusFailed, Error: "campaign cancelled"})
			}
			break
		}
		sem <- struct{}{}
		job, err := m.jobs.Submit(cell.Spec)
		for err != nil && (errors.Is(err, runner.ErrPoolSaturated) || errors.Is(err, simsvc.ErrShed)) && !c.isCancelled() {
			// The shared backlog is full (other clients own the slots):
			// back off briefly and retry rather than failing the cell.
			// In shed mode the rejection is explicit (429); the feeder
			// is an internal batch client, so it counts every shed —
			// surfaced in progress and /statsz so operators see the
			// pressure — and keeps backing off.
			if errors.Is(err, simsvc.ErrShed) {
				c.mu.Lock()
				c.shed++
				c.mu.Unlock()
				m.cellsShed.Add(1)
			}
			time.Sleep(5 * time.Millisecond)
			job, err = m.jobs.Submit(cell.Spec)
		}
		if err != nil {
			<-sem
			m.settle(c, i, simsvc.JobView{Status: simsvc.StatusFailed, Error: err.Error()})
			continue
		}
		c.mu.Lock()
		cell.job = job
		c.mu.Unlock()
		if c.isCancelled() {
			// DELETE raced the submit: it could not see this job yet, so
			// cancel it here; the watcher settles the cell as failed.
			_, _ = m.jobs.Cancel(job.ID)
		}
		wg.Add(1)
		go func(i int, job *simsvc.Job) {
			defer wg.Done()
			defer func() { <-sem }()
			view, _ := job.Wait(context.Background())
			m.settle(c, i, view)
		}(i, job)
	}
	wg.Wait()
	m.finish(c)
}

// settle records a cell's terminal outcome and wakes waiters.
func (m *Manager) settle(c *Campaign, i int, view simsvc.JobView) {
	c.mu.Lock()
	cell := c.cells[i]
	if cell.settled {
		c.mu.Unlock()
		return
	}
	cell.settled = true
	cell.view = view
	switch {
	case view.Status == simsvc.StatusDone && view.Cached:
		c.done++
		c.cacheHits++
		m.cellsDone.Add(1)
		m.cellsCached.Add(1)
	case view.Status == simsvc.StatusDone:
		c.done++
		m.cellsDone.Add(1)
		if view.RunMs > 0 {
			c.runDur.Add(view.RunMs)
		}
	default:
		c.failed++
		m.cellsFailed.Add(1)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// finish marks the campaign terminal.
func (m *Manager) finish(c *Campaign) {
	c.mu.Lock()
	c.finished = time.Now()
	cancelled := c.cancelled
	c.cond.Broadcast()
	c.mu.Unlock()
	if cancelled {
		m.cancelledCt.Add(1)
	} else {
		m.completed.Add(1)
	}
}

// Campaign looks a campaign up by ID.
func (m *Manager) Campaign(id string) (*Campaign, bool) { return m.campaigns.Get(id) }

// Progress snapshots the campaign's aggregate state. Unsettled cells
// with a submitted job report that job's live status; cells the feeder
// has not reached yet count as queued.
func (m *Manager) Progress(c *Campaign) Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := Progress{
		ID:        c.ID,
		Axes:      append([]string(nil), c.axes...),
		Total:     len(c.cells),
		Done:      c.done,
		Failed:    c.failed,
		CacheHits: c.cacheHits,
		Shed:      c.shed,
	}
	for _, cell := range c.cells {
		if cell.settled {
			continue
		}
		status := simsvc.StatusQueued
		if cell.job != nil {
			status = cell.job.View().Status
		}
		if status == simsvc.StatusRunning {
			p.Running++
		} else {
			p.Queued++
		}
	}
	end := c.finished
	switch {
	case !c.terminalLocked():
		p.Status, end = "running", time.Now()
		if remaining := p.Total - c.done - c.failed; c.runDur.N() > 0 && remaining > 0 {
			p.ETASeconds = float64(remaining) * c.runDur.Mean() / 1000 / float64(m.jobs.Workers())
		}
	case c.cancelled:
		p.Status = "cancelled"
	default:
		p.Status = "done"
	}
	p.ElapsedSeconds = end.Sub(c.created).Seconds()
	return p
}

// Cancel requests cancellation: the feeder stops submitting new cells
// (they settle as failed), and every in-flight cell's job is cancelled
// through the job manager. Cancelling a terminal campaign is a no-op
// reporting false.
func (m *Manager) Cancel(id string) (bool, error) {
	c, ok := m.Campaign(id)
	if !ok {
		return false, fmt.Errorf("campaign: no campaign %q", id)
	}
	c.mu.Lock()
	if c.done+c.failed == len(c.cells) { // every cell settled: nothing to cancel
		c.mu.Unlock()
		return false, nil
	}
	c.cancelled = true
	var jobIDs []string
	for _, cell := range c.cells {
		if cell.job != nil && !cell.settled {
			jobIDs = append(jobIDs, cell.job.ID)
		}
	}
	c.mu.Unlock()
	for _, id := range jobIDs {
		_, _ = m.jobs.Cancel(id) // terminal or evicted jobs: no-op
	}
	return true, nil
}

// CancelAll cancels every live campaign (graceful shutdown).
func (m *Manager) CancelAll() {
	for _, c := range m.campaigns.All() {
		_, _ = m.Cancel(c.ID)
	}
}

// Wait blocks until the campaign is terminal (or ctx ends) and returns
// its progress.
func (m *Manager) Wait(ctx context.Context, id string) (Progress, error) {
	c, ok := m.Campaign(id)
	if !ok {
		return Progress{}, fmt.Errorf("campaign: no campaign %q", id)
	}
	c.mu.Lock()
	err := simsvc.WaitUntil(ctx, c.cond, c.terminalLocked)
	c.mu.Unlock()
	if err != nil {
		return Progress{}, err
	}
	return m.Progress(c), nil
}

// ErrCampaignEvicted terminates a result stream whose campaign handle
// was evicted from the table while the stream was attached.
var ErrCampaignEvicted = errors.New("campaign: campaign evicted while streaming")

// StreamResults delivers cell results in deterministic cell order —
// cell i is delivered once settled, after cells 0..i-1 — replaying
// settled cells first and then tailing the live remainder. It returns
// nil once every cell is delivered, fn's error if it fails (client
// gone), ctx's error, or ErrCampaignEvicted.
func (m *Manager) StreamResults(ctx context.Context, id string, fn func(CellResult) error) error {
	c, ok := m.Campaign(id)
	if !ok {
		return fmt.Errorf("campaign: no campaign %q", id)
	}
	for _, cell := range c.cells {
		c.mu.Lock()
		err := simsvc.WaitUntil(ctx, c.cond, func() bool { return cell.settled || c.evicted })
		settled, res := cell.settled, cell.resultView()
		c.mu.Unlock()
		if err != nil {
			return err
		}
		if !settled { // woken by the eviction alone
			return ErrCampaignEvicted
		}
		if err := fn(res); err != nil {
			return err
		}
	}
	return nil
}

// Results snapshots every settled cell's result in cell order (unsettled
// cells are skipped) — the input to Table.
func (c *Campaign) Results() []CellResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CellResult, 0, len(c.cells))
	for _, cell := range c.cells {
		if cell.settled {
			out = append(out, cell.resultView())
		}
	}
	return out
}

// Stats is the subsystem's aggregate state, surfaced under "campaigns"
// in the job service's /statsz.
type Stats struct {
	Submitted   int64 `json:"submitted"`
	Completed   int64 `json:"completed"`
	Cancelled   int64 `json:"cancelled"`
	Retained    int   `json:"retained"`
	CellsTotal  int64 `json:"cells_total"`
	CellsDone   int64 `json:"cells_done"`
	CellsFailed int64 `json:"cells_failed"`
	CellsCached int64 `json:"cells_cached"`
	// CellsShed counts feeder submit attempts rejected by shed mode
	// (each was retried; cells still complete).
	CellsShed int64 `json:"cells_shed"`
}

// Stats reports the manager's counters.
func (m *Manager) Stats() Stats {
	retained := len(m.campaigns.All())
	return Stats{
		Submitted:   m.submitted.Load(),
		Completed:   m.completed.Load(),
		Cancelled:   m.cancelledCt.Load(),
		Retained:    retained,
		CellsTotal:  m.cellsTotal.Load(),
		CellsDone:   m.cellsDone.Load(),
		CellsFailed: m.cellsFailed.Load(),
		CellsCached: m.cellsCached.Load(),
		CellsShed:   m.cellsShed.Load(),
	}
}
