package runtime

import (
	"runtime"
	"sync"
	"time"
)

// The pipelined streaming session overlaps the simulation's two stages:
// while the delivery workers replay window w against the server engines,
// the node shards are already simulating window w+1. The window loop
// itself is Session's (stream.go), over the one originHost; a pipe adds
// only the persistent workers that run its feed and its shard deliveries,
// and keeps several windowBufs in flight to do so. The stages are
// joined by per-worker channels buffered to one window's worth of jobs,
// so backpressure is structural: a delivery worker still holding the
// previous window's jobs blocks the dispatch, bounding the pipeline at
// roughly one window in flight per stage.
//
// Stage 1 — the node phase — is sharded by origin with pinned state: node
// shard s is a persistent worker goroutine owning nodes n ≡ s (mod
// nodeShards), the same origin partition the delivery loop uses, so each
// node's persistent dataflow.Instance, sender and scratch stay with one
// goroutine for the whole session instead of migrating across a worker
// pool every window. Stage 2 is one persistent goroutine per delivery
// shard, consuming its windows in order.
//
// Between the stages, the coordinator (the Offer caller) runs the global
// coupling step that cannot shard — reduce aggregation, the time sort,
// and channel pricing (a window's delivery ratio is a function of every
// shard's offered load) — in window order, mirroring how distributed-
// Newton schemes interleave independent per-node subproblem steps with a
// serial global coupling step.
//
// Determinism: each node's simulation is a pure function of its inputs
// wherever it runs; the coordinator's coupling step sees the per-node
// message streams concatenated in node order, exactly like the phased
// path; pricing happens in window order on one goroutine; and each
// delivery shard's state (server engine, reassembly, loss RNG) is touched
// only by its own worker, in window order. The pipelined Result is
// therefore byte-identical to the phased and batch ones at any
// Shards/Workers setting — the Pipelined parity tests pin this.
type pipe struct {
	s *Session

	// Each window is broadcast to every node shard; fed counts the shards
	// still feeding it (one window feeds at a time).
	nodeCh []chan *windowBufs
	fed    sync.WaitGroup

	// Delivery shards are owned by min(#shards, worker budget) persistent
	// workers — shard i belongs to worker i mod len(shardCh) — so a
	// pipelined session never runs more concurrent delivery than
	// Config.Workers allows (the multi-tenant server's SimWorkers bound
	// must hold in pipelined mode too). A shard's jobs always flow
	// through its owner's FIFO, preserving per-shard window order; the
	// channels are buffered to one window's worth of jobs per worker so
	// dispatching a window never waits on that window's own delivery.
	shardCh    []chan shardJob
	workerBusy []int64 // per delivery worker, owner-written
	workers    sync.WaitGroup
}

// shardJob is one window's delivery batch for one shard: win.parts[shard].
type shardJob struct {
	shard int
	ratio float64
	win   *windowBufs
}

// newPipe builds the pipelined execution of s: persistent node-shard
// workers and delivery workers. Callers gate on the worker budget (see
// NewSession). The two stages run concurrently, so the budget is split
// between them — node shards get the larger half (their stage also feeds
// the coordinator's coupling step), delivery the rest — keeping the
// session's total concurrency within Config.Workers: the multi-tenant
// server's SimWorkers isolation bound holds in pipelined mode too.
func newPipe(s *Session) *pipe {
	cfg := &s.cfg
	budget := cfg.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	dwBudget := budget / 2
	if dwBudget < 1 {
		dwBudget = 1
	}
	nsBudget := budget - dwBudget
	if nsBudget < 1 {
		nsBudget = 1
	}
	if nsBudget > cfg.Nodes {
		nsBudget = cfg.Nodes
	}
	ns := cfg.Shards
	if ns <= 1 || ns > nsBudget {
		ns = nsBudget
	}
	p := &pipe{s: s}
	s.nodeShards = ns
	p.nodeCh = make([]chan *windowBufs, ns)
	for i := range p.nodeCh {
		p.nodeCh[i] = make(chan *windowBufs)
		p.workers.Add(1)
		go p.nodeWorker(i)
	}
	shards := len(s.host.plan.shards)
	dw := shards
	if dw > dwBudget {
		dw = dwBudget
	}
	jobsPerWorker := (shards + dw - 1) / dw
	p.shardCh = make([]chan shardJob, dw)
	p.workerBusy = make([]int64, dw)
	for i := range p.shardCh {
		p.shardCh[i] = make(chan shardJob, jobsPerWorker)
		p.workers.Add(1)
		go p.shardWorker(i)
	}
	return p
}

// nodeWorker feeds its pinned node shard for each window.
func (p *pipe) nodeWorker(i int) {
	defer p.workers.Done()
	for win := range p.nodeCh[i] {
		p.s.host.feedShard(win, i, p.s.buf)
		p.fed.Done()
	}
}

// shardWorker replays its owned shards' delivery batches in window order
// (a shard's jobs always arrive on this worker's FIFO, in dispatch
// order). After a pipeline failure it keeps draining (releasing window
// storage) so the coordinator never blocks, but stops executing.
func (p *pipe) shardWorker(i int) {
	defer p.workers.Done()
	for job := range p.shardCh[i] {
		if p.s.failed() == nil {
			start := time.Now()
			if err := p.s.host.plan.shards[job.shard].deliver(job.win.parts[job.shard], job.ratio); err != nil {
				p.s.fail(err)
			}
			p.workerBusy[i] += int64(time.Since(start))
		}
		job.win.release(p.s)
	}
}

// feed broadcasts one window to the node shards and waits for them — the
// per-window barrier the global pricing step needs.
func (p *pipe) feed(win *windowBufs) error {
	p.fed.Add(len(p.nodeCh))
	for _, ch := range p.nodeCh {
		ch <- win
	}
	p.fed.Wait()
	return firstError(win.errs)
}

// dispatch hands each non-empty delivery shard's partition of a priced
// window to its owning worker, after which the coordinator returns to
// buffering the next window while the shards are still working. A send
// blocks only while the worker still holds the previous window's jobs,
// which bounds the windows in flight.
func (p *pipe) dispatch(win *windowBufs, ratio float64) error {
	parts := win.parts
	jobs := 0
	for i := range parts {
		if len(parts[i]) > 0 {
			jobs++
		}
	}
	// +1 is the coordinator's own reference: without it, the shards could
	// finish and recycle win while this loop is still reading parts to
	// find the remaining non-empty entries.
	win.refs.Store(int32(jobs) + 1)
	for i := range parts {
		if len(parts[i]) > 0 {
			p.shardCh[i%len(p.shardCh)] <- shardJob{shard: i, ratio: ratio, win: win}
		}
	}
	win.release(p.s)
	return p.s.failed()
}

// shutdown joins the workers (flushing nothing further). Called exactly
// once, before the delivery plan is collected.
func (p *pipe) shutdown() {
	for _, ch := range p.nodeCh {
		close(ch)
	}
	for _, ch := range p.shardCh {
		close(ch)
	}
	p.workers.Wait()
	if t := p.s.cfg.Timings; t != nil {
		// The busiest delivery worker is the stage's critical path.
		var max int64
		for _, ns := range p.workerBusy {
			if ns > max {
				max = ns
			}
		}
		t.addDelivery(time.Duration(max))
	}
}

// getWin returns recycled window storage, or builds a fresh set when
// every buffer is still in flight (a phased session builds exactly one).
func (s *Session) getWin() *windowBufs {
	select {
	case w := <-s.free:
		return w
	default:
		return newWindowBufs(s.nodeShards, len(s.host.plan.shards))
	}
}

// recycle returns a window whose messages are dead to the free list.
func (s *Session) recycle(w *windowBufs) {
	w.reset()
	select {
	case s.free <- w:
	default:
		w.releaseArenas() // free list full (deep error paths only)
	}
}
