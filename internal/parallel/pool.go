// Persistent worker pool. The paper's C++ implementation leans on
// OpenMP, whose runtime keeps one thread team alive for the whole
// process; the original Go port instead spawned fresh goroutines on
// every For/ForDynamic call, paying goroutine start-up and scheduler
// churn on each of the thousands of parallel regions a GCN forward
// pass executes. This file restores the OpenMP cost model: a fixed set
// of workers is started once, parks on per-worker mailboxes, and is
// handed work by reference. Steady-state submission performs no heap
// allocation (jobs are recycled through a sync.Pool, mailboxes are
// pre-allocated channels, and the free list never outgrows its initial
// capacity).
//
// Design notes:
//
//   - Every parallel call is one job: nblocks chunks of consecutive
//     iterations, claimed from an atomic counter. Static schedules
//     (ForRange) use one chunk per thread with the exact
//     block boundaries of the pre-pool implementation; dynamic
//     schedules use grain-sized chunks. Which worker executes a chunk
//     is irrelevant to results, so routing both schedules through the
//     same claim loop preserves their semantics bit for bit.
//   - The caller participates: a call that wants t threads rents at
//     most t−1 idle workers and runs the claim loop itself. Renting is
//     best-effort — when the pool is busy (e.g. a nested parallel call
//     issued from inside a worker) the call simply degrades toward
//     sequential execution instead of deadlocking or oversubscribing
//     the machine.
//   - Workers are only ever handed jobs while idle (popped from the
//     free list before the send), so a job can be recycled as soon as
//     its exit WaitGroup drains; no stale hand-off can observe a
//     reused job.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// jobKind selects how a claimed chunk is delivered to the body.
type jobKind uint8

const (
	// jobFor delivers iterations one at a time: body(i).
	jobFor jobKind = iota
	// jobRange delivers the whole chunk at once: bodyRange(lo, hi).
	jobRange
)

// job is one parallel call in flight: nblocks chunks, claimed from
// next, each spanning chunk consecutive iterations of [0, n).
type job struct {
	kind      jobKind
	body      func(i int)
	bodyRange func(lo, hi int)
	n         int
	chunk     int
	nblocks   int64
	next      atomic.Int64
	// exit counts rented workers still inside claim(); the submitting
	// call waits for it to drain before recycling the job.
	exit sync.WaitGroup
}

// claim repeatedly grabs the next unclaimed chunk and executes it,
// returning when every chunk has been claimed. It is run concurrently
// by the caller and every rented worker.
func (j *job) claim() {
	for {
		b := j.next.Add(1) - 1
		if b >= j.nblocks {
			return
		}
		lo := int(b) * j.chunk
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		if j.kind == jobRange {
			j.bodyRange(lo, hi)
			continue
		}
		body := j.body
		for i := lo; i < hi; i++ {
			body(i)
		}
	}
}

// worker is one parked pool goroutine. Its mailbox has capacity 1 so a
// hand-off never blocks the submitter: a worker is only handed a job
// after being popped from the free list, and it re-registers as free
// only after finishing the previous job.
type worker struct {
	mail chan *job
}

func (w *worker) loop(p *pool) {
	for j := range w.mail {
		j.claim()
		j.exit.Done()
		p.release(w)
	}
}

// pool is the process-wide worker set: a LIFO free list of idle
// workers. LIFO keeps recently-run workers (warm stacks, warm caches)
// in rotation.
type pool struct {
	mu   sync.Mutex
	free []*worker
}

var (
	poolOnce   sync.Once
	sharedPool *pool
	jobPool    = sync.Pool{New: func() any { return new(job) }}
)

// getPool starts the worker set on first use: GOMAXPROCS workers, so a
// top-level call using the default thread count (caller + helpers)
// leaves one worker of slack for nested calls.
func getPool() *pool {
	poolOnce.Do(func() {
		size := runtime.GOMAXPROCS(0)
		p := &pool{free: make([]*worker, 0, size)}
		for i := 0; i < size; i++ {
			w := &worker{mail: make(chan *job, 1)}
			p.free = append(p.free, w)
			go w.loop(p)
		}
		sharedPool = p
	})
	return sharedPool
}

// rent hands j to up to want idle workers. The exit counter is raised
// before any mailbox send, so a worker's Done can never precede the
// matching Add.
func (p *pool) rent(j *job, want int) {
	if want <= 0 {
		return
	}
	p.mu.Lock()
	k := len(p.free)
	if k > want {
		k = want
	}
	if k > 0 {
		j.exit.Add(k)
		for i := 0; i < k; i++ {
			w := p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
			w.mail <- j
		}
	}
	p.mu.Unlock()
}

// release returns a worker to the free list. The slice was allocated
// with capacity for every worker, so the append never reallocates.
func (p *pool) release(w *worker) {
	p.mu.Lock()
	p.free = append(p.free, w)
	p.mu.Unlock()
}

// submit runs j to completion: rents up to helpers idle workers, joins
// the claim loop itself, waits for the rented workers to leave the job,
// then recycles it. The exit.Wait forms the happens-before edge that
// publishes every body's writes to the caller.
func submit(j *job, helpers int) {
	getPool().rent(j, helpers)
	j.claim()
	j.exit.Wait()
	j.body = nil
	j.bodyRange = nil
	jobPool.Put(j)
}

// newJob checks a recycled job out of the pool and resets its claim
// counter. All other fields are overwritten by the caller.
func newJob() *job {
	j := jobPool.Get().(*job)
	j.next.Store(0)
	return j
}
