// Package live embeds the SbQA mediation pipeline in a real concurrent
// runtime: consumers submit queries from any goroutine, workers (providers)
// execute work in real time on timers, and a sharded mediation engine
// allocates queries in parallel. This is the embedding a downstream system
// would use in production — the deterministic twin for experiments lives in
// internal/boinc.
//
// # Two fronts, one pipeline
//
// The runtime has two public fronts over the same shards:
//
//   - Engine (NewEngine, functional options) — the asynchronous v2 API.
//     Submit returns a *Ticket immediately; each shard drains a FIFO queue,
//     so one consumer's tickets mediate in submission order while distinct
//     consumers run in parallel. Tickets collect their own per-worker
//     results; an event.Observer (WithObserver) streams allocations,
//     rejections, dispatch failures, registration churn, and satisfaction
//     snapshots; Engine.Stats snapshots per-shard counters.
//   - Service — the blocking v1 API. Submit/SubmitBatch block through
//     worker hand-off and deliver results on a caller-supplied channel.
//     Both are thin wrappers over the ticket pipeline, so mixing fronts is
//     safe and the single-shard determinism guarantee holds by
//     construction.
//
// # Engine architecture
//
// The engine runs N mediator shards (Config.Concurrency). Each shard owns
// one single-threaded mediator.Mediator guarded by its own mutex; queries
// route to shards by a hash of their ConsumerID, so one consumer's stream
// is always serialized (its satisfaction window stays an ordered history)
// while different consumers mediate in parallel. All shards share:
//
//   - one directory.Directory — the indexed provider/consumer catalog, so a
//     worker registered once is a candidate on every shard;
//   - one lock-striped satisfaction.Registry — the adaptive ω of Equation 2
//     reads cross-shard satisfaction without a global lock.
//
// With Concurrency = 1 the engine degenerates to the historical serialized
// service: one shard, one mutex, output byte-identical to driving a plain
// mediator.Mediator with the same inputs (the determinism tests assert
// this).
//
// Time is real (wall-clock) here; capacities are in work units per second of
// real time, usually scaled down in tests. Deterministic tests inject a
// fake clock via Config.NowFn.
package live

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"sbqa/internal/model"
)

// Result is one completed query execution delivered to the consumer.
type Result struct {
	Query    model.Query
	Provider model.ProviderID
	Latency  time.Duration
}

// Executor is the engine's dispatch contract: a registered provider the
// engine hands accepted queries to. *Worker implements it, and so does any
// type embedding *Worker — which is how embedders decorate a local executor
// with extra mediator-facing behaviour (the sbqad gateway's webhook-backed
// workers embed a *Worker and add the context-aware intention method, so
// they mediate remotely but execute locally). The accept hand-off is
// engine-internal, so Executor can only be satisfied through the worker
// machinery; providers registered without it still participate in mediation
// but are delivered to out of band.
type Executor interface {
	ProviderID() model.ProviderID
	QueueDepth() int
	accept(ctx context.Context, q model.Query, results chan<- Result, tk *Ticket) bool
}

// Worker executes queries at a fixed capacity without a goroutine of its
// own. Its backlog is a mutex-guarded FIFO: an inline slot holds the task in
// service and a ring, grown on demand up to queueCap, holds the tasks
// waiting behind it. One reusable timer, armed only while a task is in
// service, completes that task and starts the next, so an idle worker costs
// this struct and a stopped timer. It implements mediator.Provider; all
// mediator-facing reads are mutex-guarded because accepts, completions and
// mediations run on different goroutines (and, in the sharded engine, on
// different shards at once).
type Worker struct {
	id       model.ProviderID
	capacity float64 // work units per second (real time)
	queueCap int     // most tasks waiting behind the one in service

	// IntentionFn maps a query to this worker's intention; required.
	intentionFn func(q model.Query) model.Intention
	// priceFn maps a query to a bid; nil = expected-delay pricing.
	priceFn func(q model.Query, pendingWork float64) float64
	// classes restricts the query classes this worker performs; nil means
	// any class. Set before registration via SetClasses.
	classes []int

	mu          sync.Mutex
	pendingWork float64
	queueLen    int  // accepted tasks not yet completed: in service + waiting
	shutdown    bool // set by Close; gates accept
	// busy is set from the moment a task enters service until the timer
	// callback has delivered its result and found nothing waiting; serving
	// narrows it to "inService holds a task whose timer is armed".
	busy      bool
	serving   bool
	inService task
	waiting   taskRing
	timer     *time.Timer // fires complete; armed only while serving
}

type task struct {
	q model.Query
	// results receives the task's Result on the non-collecting paths.
	results chan<- Result
	// ticket, set on the collecting ticket path instead of results, takes
	// the task's Result — or, if the worker shuts down first, its
	// abandonment — so the ticket accounts for every accepted task,
	// delivered or not. Neither report blocks the worker.
	ticket *Ticket
	start  time.Time
}

// NewWorker builds an idle worker. capacity must be > 0; queueCap bounds the
// number of tasks waiting behind the one in service (0 means 1024). The
// bound is a limit, not a preallocation: queue memory grows with the backlog
// actually held.
func NewWorker(id model.ProviderID, capacity float64, queueCap int, intentionFn func(model.Query) model.Intention) (*Worker, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("live: worker %d capacity %v must be positive", id, capacity)
	}
	if intentionFn == nil {
		return nil, fmt.Errorf("live: worker %d needs an intention function", id)
	}
	if queueCap <= 0 {
		queueCap = 1024
	}
	w := &Worker{
		id:          id,
		capacity:    capacity,
		queueCap:    queueCap,
		intentionFn: intentionFn,
	}
	// Created here, at registration, so the first task's hand-off allocates
	// nothing; it stays stopped until a task enters service.
	w.timer = time.AfterFunc(time.Duration(math.MaxInt64), w.complete)
	w.timer.Stop()
	return w, nil
}

// serve puts t in service and arms the timer for its service time,
// work/capacity seconds of real time. Called with mu held.
func (w *Worker) serve(t task) {
	w.inService, w.serving = t, true
	w.timer.Reset(time.Duration(t.q.Work / w.capacity * float64(time.Second)))
}

// complete is the timer callback: it retires the task in service, delivers
// its result, then starts the next waiting task or marks the worker idle.
// A ticket takes the result without blocking. On a results channel the
// worker serves nothing until the send completes, so a consumer that stops
// reading that channel backs the worker's queue up until accept refuses. A
// callback that finds nothing in service lost a race with Close, which
// already abandoned the task.
func (w *Worker) complete() {
	w.mu.Lock()
	if !w.serving {
		w.mu.Unlock()
		return
	}
	t := w.inService
	w.inService, w.serving = task{}, false
	w.pendingWork -= t.q.Work
	if w.pendingWork < 0 {
		w.pendingWork = 0
	}
	w.queueLen--
	w.mu.Unlock()
	if t.ticket != nil || t.results != nil {
		r := Result{Query: t.q, Provider: w.id, Latency: time.Since(t.start)}
		if t.ticket != nil {
			t.ticket.deliver(r)
		} else {
			t.results <- r
		}
	}
	w.mu.Lock()
	if next, ok := w.waiting.pop(); ok {
		w.serve(next)
	} else {
		w.busy = false
	}
	w.mu.Unlock()
}

// accept enqueues a task without blocking: false if the worker is shutting
// down, queueCap tasks already wait, or the context is already done.
// Dispatch must never park a mediation shard or stall a batch behind one
// saturated worker, so a full queue refuses the hand-off immediately (the
// engine reports ErrDispatch) rather than waiting for space. The enqueue
// happens under the worker mutex against the shutdown flag, so a task is
// either refused or guaranteed to be delivered or abandoned — never
// silently lost.
func (w *Worker) accept(ctx context.Context, q model.Query, results chan<- Result, tk *Ticket) bool {
	if ctx.Err() != nil {
		return false
	}
	t := task{q: q, results: results, ticket: tk, start: time.Now()}
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.shutdown:
		return false
	case !w.busy:
		w.busy = true
		w.serve(t)
	case !w.waiting.push(t, w.queueCap):
		return false
	}
	w.pendingWork += q.Work
	w.queueLen++
	return true
}

// Close stops the worker. The task in service and the queued ones are
// abandoned: their Results never arrive, but tasks dispatched through the
// ticket path report the abandonment to their tickets, which complete
// instead of waiting forever. A result already being delivered still
// arrives.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.shutdown {
		w.mu.Unlock()
		return
	}
	w.shutdown = true
	w.timer.Stop()
	inService, serving := w.inService, w.serving
	w.inService, w.serving = task{}, false
	waiting := w.waiting
	w.waiting = taskRing{}
	w.pendingWork, w.queueLen = 0, 0
	w.mu.Unlock()
	if serving {
		w.signalAbandon(inService)
	}
	for t, ok := waiting.pop(); ok; t, ok = waiting.pop() {
		w.signalAbandon(t)
	}
}

func (w *Worker) signalAbandon(t task) {
	if t.ticket != nil {
		t.ticket.abandonTask(w.id)
	}
}

// taskRing is the FIFO of tasks waiting for service. It starts empty and
// doubles on demand up to the bound push is given, so its memory follows
// the backlog the worker actually holds rather than the bound.
type taskRing struct {
	buf  []task
	head int // index of the oldest task
	n    int // tasks held
}

// push appends t, growing the ring if needed; false once it holds limit
// tasks.
func (r *taskRing) push(t task, limit int) bool {
	if r.n == len(r.buf) {
		if r.n >= limit {
			return false
		}
		buf := make([]task, min(max(4, 2*len(r.buf)), limit))
		copy(buf, r.buf[r.head:])
		copy(buf[len(r.buf)-r.head:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = t
	r.n++
	return true
}

// pop removes and returns the oldest task, if any.
func (r *taskRing) pop() (task, bool) {
	if r.n == 0 {
		return task{}, false
	}
	t := r.buf[r.head]
	r.buf[r.head] = task{} // drop the channel and ticket references
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return t, true
}

// ProviderID implements mediator.Provider.
func (w *Worker) ProviderID() model.ProviderID { return w.id }

// QueueDepth reports the number of tasks currently queued at the worker,
// including the one in service, if any.
func (w *Worker) QueueDepth() int {
	w.mu.Lock()
	n := w.queueLen
	w.mu.Unlock()
	return n
}

// Snapshot implements mediator.Provider.
func (w *Worker) Snapshot(float64) model.ProviderSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	drain := w.pendingWork / w.capacity
	util := drain / 10 // 10 s backlog = saturated
	if util > 1 {
		util = 1
	}
	return model.ProviderSnapshot{
		ID:          w.id,
		Utilization: util,
		QueueLen:    w.queueLen,
		Capacity:    w.capacity,
		PendingWork: w.pendingWork,
	}
}

// CanPerform implements mediator.Provider; workers accept any class unless
// restricted with SetClasses.
func (w *Worker) CanPerform(q model.Query) bool {
	if w.classes == nil {
		return true
	}
	for _, c := range w.classes {
		if c == q.Class {
			return true
		}
	}
	return false
}

// Capabilities implements directory.CapabilityReporter so class-restricted
// workers are indexed by class and skipped entirely during candidate
// discovery for other classes. Nil (unrestricted) workers are universal.
func (w *Worker) Capabilities() []int { return w.classes }

// SetClasses restricts the worker to the given query classes; calling it
// with no arguments removes the restriction. It MUST be called before the
// worker is registered and never afterwards: the directory indexes
// capabilities once at registration time, and CanPerform reads the class
// list without synchronization from mediator shards — reconfiguring a
// registered worker both races and desyncs the capability index. To change
// classes, unregister the worker and register a fresh one.
func (w *Worker) SetClasses(classes ...int) {
	if len(classes) == 0 {
		w.classes = nil
		return
	}
	w.classes = append([]int(nil), classes...)
}

// Intention implements mediator.Provider.
func (w *Worker) Intention(q model.Query) model.Intention { return w.intentionFn(q) }

// Bid implements mediator.Provider.
func (w *Worker) Bid(q model.Query) float64 {
	w.mu.Lock()
	pending := w.pendingWork
	w.mu.Unlock()
	if w.priceFn != nil {
		return w.priceFn(q, pending)
	}
	return (pending + q.Work) / w.capacity
}

// SetPriceFn installs a custom bidding rule (must be called before the
// worker is registered).
func (w *Worker) SetPriceFn(fn func(q model.Query, pendingWork float64) float64) {
	w.priceFn = fn
}

// FuncConsumer adapts an intention function to mediator.Consumer.
type FuncConsumer struct {
	ID model.ConsumerID
	Fn func(q model.Query, snap model.ProviderSnapshot) model.Intention
}

// ConsumerID implements mediator.Consumer.
func (c FuncConsumer) ConsumerID() model.ConsumerID { return c.ID }

// Intention implements mediator.Consumer.
func (c FuncConsumer) Intention(q model.Query, snap model.ProviderSnapshot) model.Intention {
	if c.Fn == nil {
		return 0
	}
	return c.Fn(q, snap)
}
