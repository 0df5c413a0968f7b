package live

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"sbqa/internal/model"
)

// The tests in this file pin the Worker's observable contract: admission
// bound, FIFO delivery, latency measured from accept, and exact accounting of
// delivered versus abandoned tasks across Close. They observe the worker only
// through accept, QueueDepth, results and abandon signals, so they hold for
// any execution model behind it.

func constIntention(model.Query) model.Intention { return 0.5 }

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkerAdmissionBound: a worker holds at most queueCap waiting tasks
// behind the one it is serving (or delivering), and refuses the next one
// without blocking.
func TestWorkerAdmissionBound(t *testing.T) {
	const queueCap = 3
	w, err := NewWorker(1, 1, queueCap, constIntention)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx := context.Background()

	// The first task finishes at once, then parks on the unbuffered results
	// channel: the worker is busy delivering it and serves nothing else.
	deliver := make(chan Result)
	if !w.accept(ctx, model.Query{ID: 1, Work: 0}, deliver, nil) {
		t.Fatal("idle worker refused a task")
	}
	waitFor(t, "the first task to finish service", func() bool { return w.QueueDepth() == 0 })

	// Hour-long tasks: queueCap of them wait, the next is refused.
	slow := model.Query{Work: 3600}
	for i := 0; i < queueCap; i++ {
		slow.ID = model.QueryID(10 + i)
		if !w.accept(ctx, slow, nil, nil) {
			t.Fatalf("waiting task %d refused below queueCap", i)
		}
	}
	slow.ID = 99
	if w.accept(ctx, slow, nil, nil) {
		t.Fatal("accepted a task beyond queueCap waiting")
	}
	if d := w.QueueDepth(); d != queueCap {
		t.Fatalf("QueueDepth %d, want %d", d, queueCap)
	}

	// Taking the delivery frees the worker: the head of the queue enters
	// service, which frees exactly one waiting slot.
	if r := <-deliver; r.Query.ID != 1 {
		t.Fatalf("delivered query %d, want 1", r.Query.ID)
	}
	slow.ID = 20
	waitFor(t, "a waiting slot to free", func() bool { return w.accept(ctx, slow, nil, nil) })
	slow.ID = 21
	if w.accept(ctx, slow, nil, nil) {
		t.Fatal("accepted a task beyond queueCap waiting + 1 in service")
	}
	if d := w.QueueDepth(); d != queueCap+1 {
		t.Fatalf("QueueDepth %d, want %d", d, queueCap+1)
	}
}

// TestWorkerFIFOOrder: results arrive in the order tasks were accepted.
func TestWorkerFIFOOrder(t *testing.T) {
	w, err := NewWorker(2, 1000, 64, constIntention)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 20
	results := make(chan Result, n)
	for i := 1; i <= n; i++ {
		if !w.accept(context.Background(), model.Query{ID: model.QueryID(i), Work: 0.5}, results, nil) {
			t.Fatalf("task %d refused", i)
		}
	}
	for i := 1; i <= n; i++ {
		select {
		case r := <-results:
			if r.Query.ID != model.QueryID(i) {
				t.Fatalf("result %d carries query %d", i, r.Query.ID)
			}
			if r.Provider != 2 {
				t.Fatalf("result from provider %d", r.Provider)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d results", i-1)
		}
	}
}

// TestWorkerLatencyCoversService: Latency runs from accept, so it is at
// least the task's own service time, and a task queued behind another also
// pays the wait.
func TestWorkerLatencyCoversService(t *testing.T) {
	w, err := NewWorker(3, 100, 8, constIntention)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const service = 20 * time.Millisecond // Work 2 at capacity 100
	results := make(chan Result, 2)
	for i := 1; i <= 2; i++ {
		if !w.accept(context.Background(), model.Query{ID: model.QueryID(i), Work: 2}, results, nil) {
			t.Fatalf("task %d refused", i)
		}
	}
	for i := 1; i <= 2; i++ {
		r := <-results
		if want := time.Duration(i) * service; r.Latency < want {
			t.Errorf("query %d latency %v, want >= %v", r.Query.ID, r.Latency, want)
		}
	}
}

// acceptLedger drives a worker and accounts for every accepted task. Each
// task reports to its own ticket, which forwards a delivered result to the
// ledger's results channel and records an abandonment, so an abandon signal
// names the task.
type acceptLedger struct {
	mu        sync.Mutex
	accepted  map[model.QueryID]*Ticket
	delivered map[model.QueryID]int
}

func newAcceptLedger() *acceptLedger {
	return &acceptLedger{
		accepted:  make(map[model.QueryID]*Ticket),
		delivered: make(map[model.QueryID]int),
	}
}

func (l *acceptLedger) accept(w *Worker, id model.QueryID, work float64, results chan<- Result) bool {
	q := model.Query{ID: id, Work: work}
	tk := newTicket(q, results, true)
	tk.expect(1)
	if !w.accept(context.Background(), q, nil, tk) {
		return false
	}
	tk.finish(nil, nil, 1)
	l.mu.Lock()
	l.accepted[id] = tk
	l.mu.Unlock()
	return true
}

func (l *acceptLedger) deliver(r Result) {
	l.mu.Lock()
	l.delivered[r.Query.ID]++
	l.mu.Unlock()
}

// settled reports whether every accepted task is delivered or abandoned.
func (l *acceptLedger) settled() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, tk := range l.accepted {
		if l.delivered[id] == 0 && len(tk.Abandoned()) == 0 {
			return false
		}
	}
	return true
}

// check asserts that each accepted task was delivered exactly once or
// abandoned exactly once, never both, and that nothing else was delivered.
func (l *acceptLedger) check(t *testing.T, worker model.ProviderID) (delivered, abandoned int) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, n := range l.delivered {
		if _, ok := l.accepted[id]; !ok {
			t.Errorf("query %d delivered but never accepted", id)
		}
		if n != 1 {
			t.Errorf("query %d delivered %d times", id, n)
		}
	}
	for id, tk := range l.accepted {
		signals := len(tk.Abandoned())
		for _, p := range tk.Abandoned() {
			if p != worker {
				t.Errorf("query %d abandoned by provider %d", id, p)
			}
		}
		switch {
		case signals > 1:
			t.Errorf("query %d abandoned %d times", id, signals)
		case signals == 1 && l.delivered[id] > 0:
			t.Errorf("query %d both delivered and abandoned", id)
		case signals == 0 && l.delivered[id] == 0:
			t.Errorf("query %d neither delivered nor abandoned", id)
		}
		if signals > 0 {
			abandoned++
		} else {
			delivered++
		}
	}
	return delivered, abandoned
}

// TestWorkerCloseDuringService: closing a worker with one task in service
// and others waiting delivers some, abandons the rest, and signals each
// abandoned task exactly once.
func TestWorkerCloseDuringService(t *testing.T) {
	w, err := NewWorker(4, 200, 16, constIntention) // 5 ms per task
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	results := make(chan Result, n)
	l := newAcceptLedger()
	for i := 1; i <= n; i++ {
		if !l.accept(w, model.QueryID(i), 1, results) {
			t.Fatalf("task %d refused", i)
		}
	}
	l.deliver(<-results) // the first task completes, the second is in service
	w.Close()
	waitFor(t, "every accepted task to settle", func() bool {
		for {
			select {
			case r := <-results:
				l.deliver(r)
			default:
				return l.settled()
			}
		}
	})
	time.Sleep(20 * time.Millisecond) // let a wrongful late delivery or signal land
	for len(results) > 0 {
		l.deliver(<-results)
	}
	delivered, abandoned := l.check(t, 4)
	if delivered+abandoned != n {
		t.Fatalf("delivered %d + abandoned %d != accepted %d", delivered, abandoned, n)
	}
	if abandoned == 0 {
		t.Errorf("closing mid-service abandoned nothing (%d delivered)", delivered)
	}
	if w.QueueDepth() != 0 {
		t.Errorf("QueueDepth %d after Close", w.QueueDepth())
	}
	if w.accept(context.Background(), model.Query{ID: n + 1, Work: 1}, results, nil) {
		t.Error("closed worker accepted a task")
	}
}

// TestWorkerCloseConcurrent: Close is idempotent and safe while accepts and
// completions run on other goroutines; afterwards every accepted task is
// accounted for exactly once.
func TestWorkerCloseConcurrent(t *testing.T) {
	w, err := NewWorker(5, 20000, 8, constIntention)
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan Result, 64)
	l := newAcceptLedger()
	stopDrain := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case r := <-results:
				l.deliver(r)
			case <-stopDrain:
				return
			}
		}
	}()

	const submitters, perSubmitter = 4, 200
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				l.accept(w, model.QueryID(s*perSubmitter+i+1), 0.1, results)
			}
		}(s)
	}
	var closers sync.WaitGroup
	for c := 0; c < 3; c++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			time.Sleep(2 * time.Millisecond)
			w.Close()
		}()
	}
	wg.Wait()
	closers.Wait()
	w.Close()
	waitFor(t, "every accepted task to settle", l.settled)
	time.Sleep(20 * time.Millisecond)
	close(stopDrain)
	<-drained
	for len(results) > 0 {
		l.deliver(<-results)
	}
	delivered, abandoned := l.check(t, 5)
	if delivered+abandoned != len(l.accepted) {
		t.Fatalf("delivered %d + abandoned %d != accepted %d", delivered, abandoned, len(l.accepted))
	}
}

// TestWorkerFootprintNoGoroutines: registering thousands of workers on an
// engine starts no goroutine per worker, and once each has served a task and
// been closed the goroutine count is back where it started.
func TestWorkerFootprintNoGoroutines(t *testing.T) {
	eng, err := NewEngine(WithConcurrency(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const n = 5000
	const slack = 8 // timer callbacks still unwinding, runtime helpers
	base := runtime.NumGoroutine()
	workers := make([]*Worker, n)
	for i := range workers {
		w, err := NewWorker(model.ProviderID(i), 1e6, 0, constIntention)
		if err != nil {
			t.Fatal(err)
		}
		eng.RegisterWorker(w)
		workers[i] = w
	}
	if g := runtime.NumGoroutine(); g > base+slack {
		t.Fatalf("%d goroutines with %d idle workers registered, baseline %d", g, n, base)
	}

	results := make(chan Result, n)
	for i, w := range workers {
		if !w.accept(context.Background(), model.Query{ID: model.QueryID(i + 1), Work: 1}, results, nil) {
			t.Fatalf("worker %d refused its task", i)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case <-results:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out after %d results", i)
		}
	}
	for _, w := range workers {
		eng.UnregisterWorker(w.ProviderID())
		w.Close()
	}
	waitFor(t, "goroutines to return to baseline", func() bool { return runtime.NumGoroutine() <= base+slack })
}

// TestWorkerSteadyStateZeroAlloc: once a worker has served a task, a further
// accept → service → delivery cycle allocates nothing.
func TestWorkerSteadyStateZeroAlloc(t *testing.T) {
	w, err := NewWorker(6, 1e9, 4, constIntention)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	results := make(chan Result, 1)
	ctx := context.Background()
	q := model.Query{ID: 1, Work: 1}
	// Warm up: the timer's first run, the callback goroutine's first start,
	// and the waiting ring's first growth. A cycle's accept can land while
	// the previous callback is still finishing, in which case it waits in
	// the ring instead of entering service directly. The first warm-up task
	// parks its delivery on an unbuffered channel, so the second one must
	// wait in the ring.
	hold := make(chan Result)
	if !w.accept(ctx, q, hold, nil) || !w.accept(ctx, q, results, nil) {
		t.Fatal("warm-up accept refused")
	}
	<-hold
	<-results
	cycle := func() {
		if !w.accept(ctx, q, results, nil) {
			t.Fatal("accept refused on a drained worker")
		}
		<-results
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("accept → complete cycle allocates %v times, want 0", allocs)
	}
}
