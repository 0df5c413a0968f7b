package live

import (
	"context"
	"sync"

	"sbqa/internal/model"
)

// Ticket is the handle for one asynchronously submitted query. Submission
// (Engine.Submit) returns the ticket immediately — the engine-assigned
// QueryID is readable at once via Query — and the ticket then moves through
// two stages:
//
//  1. allocated: mediation and worker hand-off have completed.
//     Allocation blocks until here and returns the allocation and the
//     submission error (nil, a mediation error such as
//     mediator.ErrNoCandidates, or a *DispatchError).
//  2. done: every worker that accepted the query has delivered its Result.
//     Done's channel closes here; Await blocks for it; Results returns the
//     collected per-worker results.
//
// On the collecting path (the Engine default) the workers settle the ticket
// themselves: each accepted task holds the *Ticket, and the worker appends
// its Result (or, when it shuts down first, its abandonment) under the
// ticket's mutex. A ticket in flight therefore costs its struct and its
// results slice — no goroutine and no per-ticket channel beyond Done. The
// report that accounts for the last accepting worker closes Done and runs
// the completion hook (WithOnDone). Allocations to registered providers that
// are not dispatchable *Worker instances produce no Results (delivery is out
// of band), so a ticket completes when its dispatched workers — not its full
// selection — have reported.
//
// A ticket always completes: mediation failures complete it immediately,
// partial dispatch failures complete it when the accepting workers finish
// (the *DispatchError from Allocation or Await lists the remainder to
// retry), and a worker closed mid-execution reports abandonment for its
// queued tasks (see Abandoned) instead of leaving the ticket waiting forever.
type Ticket struct {
	query model.Query

	// userResults is the optional caller-supplied channel (WithResults /
	// the blocking wrappers). On the collecting path a per-ticket forwarder
	// copies the collected results to it; otherwise workers send to it
	// directly.
	userResults chan<- Result

	// collect selects the ticket-owned result path. The blocking wrappers
	// switch it off: they pass userResults straight to the workers and the
	// ticket is done at hand-off, exactly like the v1 API.
	collect bool

	// onDone, when set (WithOnDone), runs once on the goroutine that
	// completes the ticket, after Done has closed.
	onDone func(*Ticket)

	allocated chan struct{} // closed once alloc/err are set
	alloc     *model.Allocation
	err       error

	// mu guards the completion ledger below. outstanding counts the
	// accepting workers that have not reported yet: reports decrement it,
	// finish adds the accepted count once dispatch is over, so it dips below
	// zero while deliveries outrun finish. It reaches zero, with settled
	// set, exactly once.
	mu          sync.Mutex
	outstanding int
	settled     bool
	// forward, set on the collecting path when userResults is, queues the
	// collected results for the forwarder goroutine. It is buffered to the
	// number of dispatched workers, so a report never blocks a worker
	// whatever the reader does; the forwarder completes the ticket once it
	// has handed every result on.
	forward   chan Result
	results   []Result
	abandoned []model.ProviderID

	done chan struct{} // closed once results are complete
}

// newTicket returns a ticket for q. userResults may be nil; collect selects
// the ticket-owned result path (see Ticket).
func newTicket(q model.Query, userResults chan<- Result, collect bool) *Ticket {
	return &Ticket{
		query:       q,
		userResults: userResults,
		collect:     collect,
		allocated:   make(chan struct{}),
		done:        make(chan struct{}),
	}
}

// expect prepares a collecting ticket for dispatch to n workers, before any
// of them can report: it sizes the results slice and, with a WithResults
// channel, the forwarding queue.
func (t *Ticket) expect(n int) {
	t.results = make([]Result, 0, n)
	if t.userResults != nil {
		t.forward = make(chan Result, n)
	}
}

// finish completes the allocation stage: it publishes the allocation and
// error, then settles the ticket's ledger with the number of workers that
// accepted the query. With none outstanding the ticket completes here;
// otherwise the last worker to report completes it (deliver/abandonTask).
func (t *Ticket) finish(a *model.Allocation, err error, accepted int) {
	t.alloc = a
	t.err = err
	close(t.allocated)
	t.mu.Lock()
	t.outstanding += accepted
	t.settled = true
	last := t.settledLocked()
	forward := t.forward
	t.mu.Unlock()
	if forward != nil {
		go t.forwardResults(forward)
		return
	}
	if last {
		t.complete()
	}
}

// deliver records one accepting worker's result. Called by the worker, never
// blocking.
func (t *Ticket) deliver(r Result) {
	t.mu.Lock()
	t.results = append(t.results, r)
	if t.forward != nil {
		t.forward <- r // buffered to the dispatched workers: never blocks
	}
	t.outstanding--
	last := t.settledLocked()
	t.mu.Unlock()
	if last {
		t.complete()
	}
}

// abandonTask records that an accepting worker shut down before delivering.
func (t *Ticket) abandonTask(p model.ProviderID) {
	t.mu.Lock()
	t.abandoned = append(t.abandoned, p)
	t.outstanding--
	last := t.settledLocked()
	t.mu.Unlock()
	if last {
		t.complete()
	}
}

// settledLocked reports whether the caller just accounted for the last
// accepting worker and must complete the ticket. With a forwarder, it
// closes the forwarding queue instead: the forwarder completes the ticket
// after handing on what the queue still holds. Called with mu held.
func (t *Ticket) settledLocked() bool {
	if !t.settled || t.outstanding != 0 {
		return false
	}
	if t.forward != nil {
		close(t.forward)
		return false
	}
	return true
}

// forwardResults copies the collected results to the WithResults channel,
// then completes the ticket. A slow reader delays only this ticket.
func (t *Ticket) forwardResults(forward <-chan Result) {
	for r := range forward {
		t.userResults <- r
	}
	t.complete()
}

// complete closes Done and runs the completion hook. Exactly one caller
// reaches it per ticket.
func (t *Ticket) complete() {
	close(t.done)
	if t.onDone != nil {
		t.onDone(t)
	}
}

// Query returns the submitted query with its engine-assigned ID and issue
// timestamp — available immediately, before mediation completes.
func (t *Ticket) Query() model.Query { return t.query }

// Allocation blocks until mediation and worker hand-off have completed and
// returns the allocation and the submission error. The error is nil on full
// delivery; a *DispatchError (matching ErrDispatch) on partial or failed
// delivery — the allocation is still returned when mediation itself
// succeeded; or a mediation error (mediator.ErrNoCandidates, a validation
// error) with a nil allocation.
func (t *Ticket) Allocation() (*model.Allocation, error) {
	<-t.allocated
	return t.alloc, t.err
}

// Done returns a channel that is closed once the ticket is complete: every
// worker that accepted the query has delivered its Result (immediately, on
// the non-collecting path or when submission failed).
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Await blocks until the ticket is complete or ctx is done. It returns the
// collected per-worker results and the submission error: both may be
// non-zero at once — a partial dispatch failure yields the accepting
// workers' results and a *DispatchError naming the undelivered remainder.
// When ctx expires first, Await returns (nil, ctx.Err()); the ticket keeps
// collecting in the background and Await may be called again.
func (t *Ticket) Await(ctx context.Context) ([]Result, error) {
	select {
	case <-t.done:
		return t.results, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Results returns the collected per-worker results, or nil while the ticket
// is still in flight (use Await or Done to synchronize). It may hold fewer
// entries than the accepted selection when workers shut down mid-execution;
// Abandoned names those workers.
func (t *Ticket) Results() []Result {
	select {
	case <-t.done:
		return t.results
	default:
		return nil
	}
}

// Abandoned returns the accepted workers that shut down before delivering
// their result (nil while the ticket is in flight, and on the
// fire-and-forget path, where abandonment is not tracked). An abandoned
// slot is the same retry situation as a DispatchError.Failed entry: the
// query never executed there.
func (t *Ticket) Abandoned() []model.ProviderID {
	select {
	case <-t.done:
		return t.abandoned
	default:
		return nil
	}
}

// Err returns the submission error, or nil while mediation and hand-off are
// still in flight (use Allocation to synchronize).
func (t *Ticket) Err() error {
	select {
	case <-t.allocated:
		return t.err
	default:
		return nil
	}
}
