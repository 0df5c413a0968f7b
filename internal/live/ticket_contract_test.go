package live

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"sbqa/internal/alloc"
	"sbqa/internal/model"
)

// The tests in this file pin the Ticket's completion contract through the
// public Engine surface only: every worker that accepted a query reports
// exactly once (delivered or abandoned), Done closes exactly once and only
// after every report, a slow WithResults reader never stalls a worker, the
// completion hook runs once per ticket, and a ticket in flight holds no
// goroutine.

// newTicketEngine builds a two-shard engine with the given workers
// registered and four consumers.
func newTicketEngine(t *testing.T, workers ...*Worker) *Engine {
	t.Helper()
	eng, err := NewEngine(
		WithWindow(20),
		WithConcurrency(2),
		WithAllocatorFactory(func(shard int) alloc.Allocator { return sbqaAllocator(uint64(shard) + 7) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	for _, w := range workers {
		eng.RegisterWorker(w)
	}
	for c := 0; c < 4; c++ {
		eng.RegisterConsumer(FuncConsumer{ID: model.ConsumerID(c), Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.4 }})
	}
	return eng
}

// newTicketWorker builds a worker closed at test end.
func newTicketWorker(t *testing.T, id model.ProviderID, capacity float64, queueCap int) *Worker {
	t.Helper()
	w, err := NewWorker(id, capacity, queueCap, constIntention)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// acceptedBy returns the workers that accepted the ticket's query: its
// selection minus the dispatch failures.
func acceptedBy(t *testing.T, tk *Ticket) []model.ProviderID {
	t.Helper()
	a, err := tk.Allocation()
	if a == nil {
		return nil
	}
	if err == nil {
		return a.Selected
	}
	de, ok := AsDispatchError(err)
	if !ok {
		t.Fatalf("query %d: allocation with non-dispatch error %v", tk.Query().ID, err)
	}
	return de.Accepted
}

// checkTicketLedger asserts that a completed ticket accounts for each
// accepting worker exactly once, as a delivered result or an abandonment,
// and names no other worker. It returns the two counts.
func checkTicketLedger(t *testing.T, tk *Ticket) (delivered, abandoned int) {
	t.Helper()
	seen := make(map[model.ProviderID]int)
	for _, r := range tk.Results() {
		if r.Query.ID != tk.Query().ID {
			t.Errorf("ticket %d holds a result for query %d", tk.Query().ID, r.Query.ID)
		}
		seen[r.Provider]++
	}
	for _, p := range tk.Abandoned() {
		seen[p]++
	}
	accepted := acceptedBy(t, tk)
	for _, p := range accepted {
		if seen[p] != 1 {
			t.Errorf("ticket %d: accepting worker %d reported %d times", tk.Query().ID, p, seen[p])
		}
		delete(seen, p)
	}
	for p, n := range seen {
		t.Errorf("ticket %d: worker %d reported %d times without accepting", tk.Query().ID, p, n)
	}
	return len(tk.Results()), len(tk.Abandoned())
}

// TestTicketAccountsEveryAcceptedWorker: with slow workers closed while they
// hold accepted tasks, every ticket still completes, and across all of them
// accepted == delivered + abandoned, with each report exactly once.
func TestTicketAccountsEveryAcceptedWorker(t *testing.T) {
	var workers, slow []*Worker
	for i := 0; i < 6; i++ {
		capacity := 1000.0
		if i%2 == 1 {
			capacity = 2 // Work 1 takes 500 ms: still in flight at Close
		}
		w := newTicketWorker(t, model.ProviderID(i), capacity, 256)
		workers = append(workers, w)
		if i%2 == 1 {
			slow = append(slow, w)
		}
	}
	eng := newTicketEngine(t, workers...)

	const n = 60
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tickets[i] = eng.Submit(context.Background(), model.Query{Consumer: model.ConsumerID(i % 4), N: 3, Work: 1})
	}
	accepted := 0
	for _, tk := range tickets {
		accepted += len(acceptedBy(t, tk))
	}
	for _, w := range slow {
		w.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var delivered, abandoned int
	for _, tk := range tickets {
		select {
		case <-tk.Done():
		case <-ctx.Done():
			t.Fatalf("ticket %d never completed", tk.Query().ID)
		}
		d, a := checkTicketLedger(t, tk)
		delivered += d
		abandoned += a
	}
	if accepted != delivered+abandoned {
		t.Fatalf("accepted %d != delivered %d + abandoned %d", accepted, delivered, abandoned)
	}
	if abandoned == 0 {
		t.Errorf("closing slow workers abandoned nothing (%d delivered)", delivered)
	}
}

// TestTicketDoneOnceWhenDeliveriesRaceFinish: with workers that complete at
// once, results can arrive while the dispatching shard is still handing the
// query to the rest of the selection — before the ticket knows how many
// workers accepted. Done must still close exactly once (a second close
// panics) and only after every accepting worker has delivered.
func TestTicketDoneOnceWhenDeliveriesRaceFinish(t *testing.T) {
	var workers []*Worker
	for i := 0; i < 6; i++ {
		workers = append(workers, newTicketWorker(t, model.ProviderID(i), 1e9, 256))
	}
	eng := newTicketEngine(t, workers...)

	const submitters, per = 4, 150
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tk := eng.Submit(context.Background(), model.Query{Consumer: model.ConsumerID(s), N: 3, Work: 1e-9})
				select {
				case <-tk.Done():
				case <-time.After(10 * time.Second):
					t.Errorf("submitter %d: ticket %d never completed", s, tk.Query().ID)
					return
				}
				if _, err := tk.Allocation(); err != nil {
					t.Errorf("submitter %d: %v", s, err)
					return
				}
				if d, a := checkTicketLedger(t, tk); d != 3 || a != 0 {
					t.Errorf("ticket %d: %d delivered, %d abandoned, want 3 and 0", tk.Query().ID, d, a)
				}
				// Done stays closed and the results stay put.
				<-tk.Done()
				if got := len(tk.Results()); got != 3 {
					t.Errorf("ticket %d: Results changed to %d entries after Done", tk.Query().ID, got)
				}
			}
		}(s)
	}
	wg.Wait()
}

// TestTicketSlowResultsReaderDoesNotStallWorker: a WithResults channel that
// nobody reads holds back only its own ticket's completion; the worker goes
// on serving, so a second ticket on the same worker completes. Once the
// reader takes the result, the first ticket completes too.
func TestTicketSlowResultsReaderDoesNotStallWorker(t *testing.T) {
	w := newTicketWorker(t, 0, 1000, 16)
	eng := newTicketEngine(t, w)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	unread := make(chan Result) // unbuffered, not read until the end
	first := eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 0.1}, WithResults(unread))
	if _, err := first.Allocation(); err != nil {
		t.Fatal(err)
	}
	second := eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 0.1})
	if rs, err := second.Await(ctx); err != nil || len(rs) != 1 {
		t.Fatalf("second ticket behind a blocked reader: results %v, err %v", rs, err)
	}
	waitFor(t, "the worker to drain", func() bool { return w.QueueDepth() == 0 })
	select {
	case <-first.Done():
		t.Fatal("ticket completed before its WithResults reader took the result")
	default:
	}
	select {
	case r := <-unread:
		if r.Query.ID != first.Query().ID {
			t.Fatalf("forwarded result for query %d, want %d", r.Query.ID, first.Query().ID)
		}
	case <-ctx.Done():
		t.Fatal("result never forwarded")
	}
	if rs, err := first.Await(ctx); err != nil || len(rs) != 1 {
		t.Fatalf("first ticket after the read: results %v, err %v", rs, err)
	}
}

// TestTicketOnDoneRunsOnceForEveryOutcome: the WithOnDone hook runs exactly
// once per ticket, after Done has closed, whatever the outcome.
func TestTicketOnDoneRunsOnceForEveryOutcome(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name   string
		submit func(t *testing.T, hook QueryOption) []*Ticket
	}{
		{"success", func(t *testing.T, hook QueryOption) []*Ticket {
			eng := newTicketEngine(t, newTicketWorker(t, 0, 1000, 16), newTicketWorker(t, 1, 1000, 16))
			return []*Ticket{eng.Submit(ctx, model.Query{Consumer: 0, N: 2, Work: 0.1}, hook)}
		}},
		{"success forwarding WithResults", func(t *testing.T, hook QueryOption) []*Ticket {
			eng := newTicketEngine(t, newTicketWorker(t, 0, 1000, 16))
			return []*Ticket{eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 0.1}, hook, WithResults(make(chan Result, 1)))}
		}},
		{"fire and forget", func(t *testing.T, hook QueryOption) []*Ticket {
			eng := newTicketEngine(t, newTicketWorker(t, 0, 1000, 16))
			return []*Ticket{eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 0.1}, hook, FireAndForget())}
		}},
		{"batch", func(t *testing.T, hook QueryOption) []*Ticket {
			eng := newTicketEngine(t, newTicketWorker(t, 0, 1000, 16), newTicketWorker(t, 1, 1000, 16))
			return eng.SubmitBatch(ctx, []model.Query{
				{Consumer: 0, N: 1, Work: 0.1}, {Consumer: 1, N: 2, Work: 0.1}, {Consumer: 2, N: 1, Work: 0.1},
			}, hook)
		}},
		{"mediation error", func(t *testing.T, hook QueryOption) []*Ticket {
			eng := newTicketEngine(t) // no workers: no candidates
			return []*Ticket{eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 0.1}, hook)}
		}},
		{"shed", func(t *testing.T, hook QueryOption) []*Ticket {
			eng := newTicketEngine(t, newTicketWorker(t, 0, 1000, 16))
			tk := eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 0.1}, hook, WithDeadline(time.Nanosecond))
			if _, err := tk.Allocation(); err == nil {
				t.Fatal("query with an infeasible deadline was not shed")
			} else if _, ok := AsShedError(err); !ok {
				t.Fatalf("err = %v, want a shed", err)
			}
			return []*Ticket{tk}
		}},
		{"guard rejection", func(t *testing.T, hook QueryOption) []*Ticket {
			eng := newTicketEngine(t, newTicketWorker(t, 0, 1000, 16))
			eng.SetSubmitGuard(func(model.Query) error { return ErrEngineClosed })
			return []*Ticket{eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 0.1}, hook)}
		}},
		{"engine closed", func(t *testing.T, hook QueryOption) []*Ticket {
			eng := newTicketEngine(t, newTicketWorker(t, 0, 1000, 16))
			eng.Close()
			return []*Ticket{eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 0.1}, hook)}
		}},
		{"partial dispatch", func(t *testing.T, hook QueryOption) []*Ticket {
			dead := newTicketWorker(t, 1, 1000, 16)
			dead.Close() // still registered: accept refuses
			eng := newTicketEngine(t, newTicketWorker(t, 0, 1000, 16), dead)
			tk := eng.Submit(ctx, model.Query{Consumer: 0, N: 2, Work: 0.1}, hook)
			if _, err := tk.Allocation(); !errors.Is(err, ErrDispatch) {
				t.Fatalf("err = %v, want a partial dispatch", err)
			}
			return []*Ticket{tk}
		}},
		{"worker closed mid-service", func(t *testing.T, hook QueryOption) []*Ticket {
			slow := newTicketWorker(t, 0, 1, 16) // Work 10 takes 10 s
			eng := newTicketEngine(t, slow)
			tks := []*Ticket{
				eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 10}, hook),
				eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 10}, hook),
			}
			for _, tk := range tks {
				if _, err := tk.Allocation(); err != nil {
					t.Fatal(err)
				}
			}
			slow.Close() // one in service, one waiting: both abandoned
			return tks
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			calls := make(map[*Ticket]int)
			hook := WithOnDone(func(tk *Ticket) {
				select {
				case <-tk.Done():
				default:
					t.Errorf("hook ran for ticket %d before Done closed", tk.Query().ID)
				}
				mu.Lock()
				calls[tk]++
				mu.Unlock()
			})
			tickets := tc.submit(t, hook)
			waitFor(t, "every completion hook", func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(calls) == len(tickets)
			})
			time.Sleep(10 * time.Millisecond) // let a wrongful second call land
			mu.Lock()
			defer mu.Unlock()
			for _, tk := range tickets {
				if calls[tk] != 1 {
					t.Errorf("ticket %d: hook ran %d times", tk.Query().ID, calls[tk])
				}
			}
		})
	}
}

// TestTicketFootprintNoGoroutines: a ticket in flight holds no goroutine, so
// a thousand tickets waiting on their workers add at most a few goroutines
// (runtime helpers, timer callbacks unwinding).
func TestTicketFootprintNoGoroutines(t *testing.T) {
	const n, slack = 1000, 8
	var workers []*Worker
	for i := 0; i < 4; i++ {
		workers = append(workers, newTicketWorker(t, model.ProviderID(i), 1e-3, n)) // Work 1 takes 1000 s
	}
	eng := newTicketEngine(t, workers...)
	// Warm the engine: shard loops and the workers' timers are running.
	warm := eng.Submit(context.Background(), model.Query{Consumer: 0, N: 1, Work: 1e-9})
	if _, err := warm.Allocation(); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tickets[i] = eng.Submit(context.Background(), model.Query{Consumer: model.ConsumerID(i % 4), N: 1, Work: 1})
	}
	for _, tk := range tickets {
		if _, err := tk.Allocation(); err != nil {
			t.Fatal(err)
		}
	}
	if g := runtime.NumGoroutine(); g > base+slack {
		t.Fatalf("%d goroutines with %d tickets in flight, %d before", g, n, base)
	}
	for _, w := range workers {
		w.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, tk := range tickets {
		if _, err := tk.Await(ctx); err != nil {
			t.Fatalf("ticket %d: %v", tk.Query().ID, err)
		}
		if len(tk.Abandoned()) != 1 {
			t.Fatalf("ticket %d: abandoned %v, want its one worker", tk.Query().ID, tk.Abandoned())
		}
	}
}
