// Weighted fair queue: the gateway's admission stage between quota
// and the worker pool. Each tenant owns a bounded FIFO; workers drain
// tenants round-robin by deficit counter (DRR with unit job cost, so
// deficit == weighted round robin), which upper-bounds any tenant's
// share of worker time at weight/Σweights no matter how deep its
// queue is. A noisy tenant therefore fills its own FIFO and SHEDs
// (ShedReasonFairQ) while quiet tenants' jobs keep flowing — the
// "degrade to SHED, never starve" contract of the gateway.
package gateway

import "sync"

// tenantQueue is one tenant's slot in the fair queue: a FIFO ring of
// its queued jobs, allocated once at its full depth.
type tenantQueue struct {
	weight int
	jobs   []job // len = FIFO capacity
	head   int   // index of the oldest queued job
	n      int   // queued jobs
	credit int   // DRR deficit counter
	active bool  // currently in fq.active
}

// fairQueue multiplexes per-tenant FIFOs to the worker pool. Jobs are
// held by value, so admission allocates nothing. Safe for concurrent
// use; pop blocks until a job is available or the queue is
// closed and fully drained.
type fairQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQueue
	active  []*tenantQueue // tenants with queued jobs, visit order
	cursor  int            // next active slot to visit
	closed  bool
}

func newFairQueue() *fairQueue {
	fq := &fairQueue{tenants: make(map[string]*tenantQueue)}
	fq.cond = sync.NewCond(&fq.mu)
	return fq
}

// addTenant registers a tenant's slot. Weight < 1 is raised to 1,
// depth < 1 to 1. Must be called before push for that tenant.
func (fq *fairQueue) addTenant(name string, weight, depth int) {
	if weight < 1 {
		weight = 1
	}
	if depth < 1 {
		depth = 1
	}
	fq.mu.Lock()
	defer fq.mu.Unlock()
	fq.tenants[name] = &tenantQueue{weight: weight, jobs: make([]job, depth)}
}

// push enqueues a job for tenant name. Returns false — caller SHEDs —
// when the tenant's FIFO is at capacity, the tenant is unknown, or
// the queue is closed.
func (fq *fairQueue) push(name string, j job) bool {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if fq.closed {
		return false
	}
	tq := fq.tenants[name]
	if tq == nil || tq.n == len(tq.jobs) {
		return false
	}
	tq.jobs[(tq.head+tq.n)%len(tq.jobs)] = j
	tq.n++
	if !tq.active {
		tq.active = true
		fq.active = append(fq.active, tq)
	}
	fq.cond.Signal()
	return true
}

// pop dequeues the next job by deficit round robin, blocking while the
// queue is open and empty. After close it keeps draining queued jobs
// (graceful drain serves what was admitted) and returns false only
// once closed and empty.
func (fq *fairQueue) pop() (job, bool) {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	for {
		if len(fq.active) > 0 {
			if fq.cursor >= len(fq.active) {
				fq.cursor = 0
			}
			tq := fq.active[fq.cursor]
			if tq.credit <= 0 {
				tq.credit += tq.weight
			}
			j := tq.jobs[tq.head]
			tq.jobs[tq.head] = job{} // the queue must not pin a served job's memory
			tq.head = (tq.head + 1) % len(tq.jobs)
			tq.n--
			tq.credit--
			if tq.n == 0 {
				// Tenant exhausted: retire it from the active list
				// without advancing the cursor (the slot's successor
				// shifts into this index).
				tq.active = false
				tq.credit = 0
				fq.active = append(fq.active[:fq.cursor], fq.active[fq.cursor+1:]...)
			} else if tq.credit <= 0 {
				fq.cursor++
			}
			return j, true
		}
		if fq.closed {
			return job{}, false
		}
		fq.cond.Wait()
	}
}

// depthOf returns tenant name's current queue depth (0 if unknown).
func (fq *fairQueue) depthOf(name string) int {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if tq := fq.tenants[name]; tq != nil {
		return tq.n
	}
	return 0
}

// close stops admission and wakes every blocked pop. Queued jobs are
// still served; pop returns false once the backlog drains.
func (fq *fairQueue) close() {
	fq.mu.Lock()
	fq.closed = true
	fq.mu.Unlock()
	fq.cond.Broadcast()
}
