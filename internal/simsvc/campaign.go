package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ossd/internal/stats"
)

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

// cellResult is one cell's observable outcome, the per-cell payload of
// GET /campaigns/{id}/stream. Result holds the job's payload verbatim
// (a Result, rendered indented; the stream's encoder compacts it), so
// equal specs yield byte-identical result fields.
type cellResult struct {
	Index  int             `json:"index"`
	Coords []axisValue     `json:"coords"`
	JobID  string          `json:"job_id,omitempty"`
	Status Status          `json:"status"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// resultView snapshots the cell as a cellResult (campaign lock held).
func (c *campaignCell) resultView() cellResult {
	r := cellResult{
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

// campaign is one submitted sweep. All mutable state is guarded by mu;
// cond broadcasts whenever a cell settles, the campaign finishes, or
// the handle is evicted, so progress waiters and stream tails wake
// without spinning.
type campaign struct {
	ID      string
	axes    []string
	created time.Time

	mu        sync.Mutex
	cond      *sync.Cond
	cells     []*campaignCell
	done      int
	failed    int
	cacheHits int
	cancelled bool
	evicted   bool
	finished  time.Time
	// shed counts submit attempts the job manager shed because its
	// backlog was full; the feeder retried them, so cells still
	// complete, but the count is the campaign's view of overload.
	shed int
	// runDur accumulates observed wall-clock run durations of the
	// campaign's simulated (non-cached) cells, feeding the ETA.
	runDur stats.Mean
}

// terminalLocked reports whether the campaign has finished: every cell
// settled AND the feeder ran finish(), so the finished timestamp and
// manager counters are in place before waiters observe the terminal
// state (mu held).
func (c *campaign) terminalLocked() bool { return !c.finished.IsZero() }

// evict marks a terminal campaign's handle evicted and wakes its stream
// tails; a running campaign is left alone and reports false.
func (c *campaign) evict() bool {
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
func (c *campaign) isCancelled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cancelled
}

// CampaignProgress is a campaign's aggregate state (GET
// /campaigns/{id}). CacheHits counts done cells served from the result
// cache (a subset of Done). ETASeconds extrapolates from the mean
// observed run duration of the campaign's simulated cells across the
// manager's workers; it is zero until the first simulated cell
// completes.
type CampaignProgress struct {
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

// campaignManager owns the campaign table and feeds cells through the
// Manager that owns it.
type campaignManager struct {
	jobs  *Manager
	table *handles[*campaign]
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

// submit expands the spec and starts the campaign's feeder. Expansion
// errors (bad axis, guard exceeded, invalid cell spec) reject the whole
// campaign; after submit returns, cells fail only individually.
func (m *campaignManager) submit(spec campaignSpec) (*campaign, error) {
	cells, err := expand(spec, m.jobs.opts.MaxCells)
	if err != nil {
		return nil, err
	}
	c := &campaign{created: time.Now(), cells: cells}
	c.cond = sync.NewCond(&c.mu)
	for _, ax := range spec.Axes {
		c.axes = append(c.axes, ax.Name)
	}

	m.table.add(c, &c.ID)
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
func (m *campaignManager) run(c *campaign) {
	sem := make(chan struct{}, m.inFlight)
	var wg sync.WaitGroup
	for i, cell := range c.cells {
		if c.isCancelled() {
			// Cells the feeder never reached settle as failed.
			for ; i < len(c.cells); i++ {
				m.settle(c, i, JobView{Status: StatusFailed, Error: "campaign cancelled"})
			}
			break
		}
		sem <- struct{}{}
		job, err := m.jobs.Submit(cell.Spec)
		for errors.Is(err, ErrShed) && !c.isCancelled() {
			// The shared backlog is full (other clients own the slots).
			// The feeder is an internal batch client: it counts every
			// shed — surfaced in progress and /statsz so operators see
			// the pressure — backs off briefly and retries rather than
			// failing the cell.
			c.mu.Lock()
			c.shed++
			c.mu.Unlock()
			m.cellsShed.Add(1)
			time.Sleep(5 * time.Millisecond)
			job, err = m.jobs.Submit(cell.Spec)
		}
		if err != nil {
			<-sem
			m.settle(c, i, JobView{Status: StatusFailed, Error: err.Error()})
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
		go func(i int, job *Job) {
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
func (m *campaignManager) settle(c *campaign, i int, view JobView) {
	c.mu.Lock()
	cell := c.cells[i]
	if cell.settled {
		c.mu.Unlock()
		return
	}
	cell.settled = true
	cell.view = view
	switch {
	case view.Status == StatusDone && view.Cached:
		c.done++
		c.cacheHits++
		m.cellsDone.Add(1)
		m.cellsCached.Add(1)
	case view.Status == StatusDone:
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
func (m *campaignManager) finish(c *campaign) {
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

// get looks a campaign up by ID.
func (m *campaignManager) get(id string) (*campaign, bool) { return m.table.get(id) }

// progress snapshots the campaign's aggregate state. Unsettled cells
// with a submitted job report that job's live status; cells the feeder
// has not reached yet count as queued.
func (m *campaignManager) progress(c *campaign) CampaignProgress {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := CampaignProgress{
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
		status := StatusQueued
		if cell.job != nil {
			status = cell.job.View().Status
		}
		if status == StatusRunning {
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
			p.ETASeconds = float64(remaining) * c.runDur.Mean() / 1000 / float64(m.jobs.opts.Workers)
		}
	case c.cancelled:
		p.Status = "cancelled"
	default:
		p.Status = "done"
	}
	p.ElapsedSeconds = end.Sub(c.created).Seconds()
	return p
}

// cancel requests cancellation: the feeder stops submitting new cells
// (they settle as failed), and every in-flight cell's job is cancelled
// through the job manager. Cancelling a terminal campaign is a no-op
// reporting false.
func (m *campaignManager) cancel(id string) (bool, error) {
	c, ok := m.get(id)
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

// wait blocks until the campaign is terminal (or ctx ends) and returns
// its progress.
func (m *campaignManager) wait(ctx context.Context, id string) (CampaignProgress, error) {
	c, ok := m.get(id)
	if !ok {
		return CampaignProgress{}, fmt.Errorf("campaign: no campaign %q", id)
	}
	c.mu.Lock()
	err := waitUntil(ctx, c.cond, c.terminalLocked)
	c.mu.Unlock()
	if err != nil {
		return CampaignProgress{}, err
	}
	return m.progress(c), nil
}

// errCampaignEvicted terminates a result stream whose campaign handle
// was evicted from the table while the stream was attached.
var errCampaignEvicted = errors.New("campaign: campaign evicted while streaming")

// streamResults delivers cell results in deterministic cell order —
// cell i is delivered once settled, after cells 0..i-1 — replaying
// settled cells first and then tailing the live remainder. It returns
// nil once every cell is delivered, fn's error if it fails (client
// gone), ctx's error, or errCampaignEvicted.
func (m *campaignManager) streamResults(ctx context.Context, id string, fn func(cellResult) error) error {
	c, ok := m.get(id)
	if !ok {
		return fmt.Errorf("campaign: no campaign %q", id)
	}
	for _, cell := range c.cells {
		c.mu.Lock()
		err := waitUntil(ctx, c.cond, func() bool { return cell.settled || c.evicted })
		settled, res := cell.settled, cell.resultView()
		c.mu.Unlock()
		if err != nil {
			return err
		}
		if !settled { // woken by the eviction alone
			return errCampaignEvicted
		}
		if err := fn(res); err != nil {
			return err
		}
	}
	return nil
}

// results snapshots every settled cell's result in cell order (unsettled
// cells are skipped) — the input to campaignTable.
func (c *campaign) results() []cellResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cellResult, 0, len(c.cells))
	for _, cell := range c.cells {
		if cell.settled {
			out = append(out, cell.resultView())
		}
	}
	return out
}

// CampaignStats is the campaign counters, reported under "campaigns" in
// GET /statsz.
type CampaignStats struct {
	Submitted   int64 `json:"submitted"`
	Completed   int64 `json:"completed"`
	Cancelled   int64 `json:"cancelled"`
	Retained    int   `json:"retained"`
	CellsTotal  int64 `json:"cells_total"`
	CellsDone   int64 `json:"cells_done"`
	CellsFailed int64 `json:"cells_failed"`
	CellsCached int64 `json:"cells_cached"`
	// CellsShed counts feeder submit attempts shed on a full backlog
	// (each was retried; cells still complete).
	CellsShed int64 `json:"cells_shed"`
}

// stats reports the campaign counters.
func (m *campaignManager) stats() CampaignStats {
	return CampaignStats{
		Submitted:   m.submitted.Load(),
		Completed:   m.completed.Load(),
		Cancelled:   m.cancelledCt.Load(),
		Retained:    len(m.table.all()),
		CellsTotal:  m.cellsTotal.Load(),
		CellsDone:   m.cellsDone.Load(),
		CellsFailed: m.cellsFailed.Load(),
		CellsCached: m.cellsCached.Load(),
		CellsShed:   m.cellsShed.Load(),
	}
}
