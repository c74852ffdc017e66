package runner

import (
	"errors"
	"sync"
)

// Pool is the service-lifetime counterpart to the batch RunAll: a fixed
// set of workers draining an ongoing task queue. Tasks carry their own
// cancellation (typically a context captured in the closure); the pool
// bounds concurrency and backlog and drains gracefully on Close.
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// ErrPoolClosed is returned by Submit after Close.
var ErrPoolClosed = errors.New("runner: pool closed")

// ErrPoolSaturated is returned by Submit when the backlog is full —
// callers shed load (simsvc answers HTTP 429) instead of blocking.
var ErrPoolSaturated = errors.New("runner: pool backlog full")

// NewPool starts workers goroutines draining a backlog-deep task queue.
// workers <= 0 means DefaultWorkers(); backlog <= 0 means 256.
func NewPool(workers, backlog int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if backlog <= 0 {
		backlog = 256
	}
	p := &Pool{tasks: make(chan func(), backlog)}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p
}

// Submit enqueues a task for execution. It never blocks: a full backlog
// returns ErrPoolSaturated, a closed pool ErrPoolClosed.
func (p *Pool) Submit(task func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.tasks <- task:
		return nil
	default:
		return ErrPoolSaturated
	}
}

// Close stops accepting tasks and waits until every queued task has
// run. Tasks that honor a cancelled context finish promptly, so callers
// wanting a fast shutdown cancel their jobs first, then Close.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.tasks)
	p.mu.Unlock()
	p.wg.Wait()
}
