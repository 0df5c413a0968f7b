package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sbqa"
	"sbqa/internal/alloc"
	"sbqa/internal/directory"
	"sbqa/internal/knbest"
	"sbqa/internal/mediator"
	"sbqa/internal/model"
	"sbqa/internal/persist"
	"sbqa/internal/policy"
	"sbqa/internal/qos"
	"sbqa/internal/satisfaction"
	"sbqa/internal/score"
	"sbqa/internal/stats"
)

// The in-process replay feeds the same generated inputs through each
// layer's exported entry points, so every layer number is timed from
// outside the program: the engine the daemon embeds (sbqa.NewEngine with
// options matching the workload's daemon flags), then each layer alone.

// bootSpec is the policy sbqad builds from its default flags (-k 20 -kn 10
// -seed 1).
func bootSpec() policy.Spec {
	return policy.Spec{Name: "boot", Kind: policy.SbQA, K: 20, Kn: 10, Seed: 1}.Normalized()
}

// qtimes are one replayed query's timestamps (ns since epoch).
type qtimes struct {
	submit, allocStart, allocEnd, fanStart, fanEnd, done int64
	remote                                               bool
}

// probe collects the timestamps the wrappers record, keyed by query ID.
type probe struct {
	mu  sync.Mutex
	byQ map[model.QueryID]*qtimes
}

func newProbe() *probe { return &probe{byQ: make(map[model.QueryID]*qtimes)} }

func (p *probe) at(id model.QueryID) *qtimes {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.byQ[id]
	if t == nil {
		t = &qtimes{}
		p.byQ[id] = t
	}
	return t
}

// timedAllocator times Allocate and hands the allocator a timed Env. The
// optional interfaces the engine looks for are forwarded by wrapAllocator.
type timedAllocator struct {
	alloc.Allocator
	p *probe
}

func (t *timedAllocator) Allocate(ctx context.Context, env alloc.Env, q model.Query, cands []model.ProviderSnapshot) (*model.Allocation, error) {
	qt := t.p.at(q.ID)
	qt.allocStart = now()
	a, err := t.Allocator.Allocate(ctx, wrapEnv(env, qt), q, cands)
	qt.allocEnd = now()
	return a, err
}

// statefulAllocator forwards alloc.Stateful (sampling-stream persistence).
type statefulAllocator struct {
	*timedAllocator
	st alloc.Stateful
}

func (s statefulAllocator) ExportState() []byte             { return s.st.ExportState() }
func (s statefulAllocator) RestoreState(state []byte) error { return s.st.RestoreState(state) }

func wrapAllocator(a alloc.Allocator, p *probe) alloc.Allocator {
	t := &timedAllocator{Allocator: a, p: p}
	if st, ok := a.(alloc.Stateful); ok {
		return statefulAllocator{timedAllocator: t, st: st}
	}
	return t
}

// timedEnv times the batched intention fan-out.
type timedEnv struct {
	alloc.Env
	qt *qtimes
}

func (e timedEnv) Intentions(ctx context.Context, q model.Query, kn []model.ProviderSnapshot) (alloc.IntentionSet, error) {
	e.qt.fanStart = now()
	s, err := e.Env.Intentions(ctx, q, kn)
	e.qt.fanEnd = now()
	return s, err
}

// appenderEnv forwards alloc.SatisfactionAppender, the allocator's
// allocation-free satisfaction read.
type appenderEnv struct {
	timedEnv
	ap alloc.SatisfactionAppender
}

func (e appenderEnv) AppendProviderSatisfactions(kn []model.ProviderSnapshot, dst []float64) []float64 {
	return e.ap.AppendProviderSatisfactions(kn, dst)
}

func wrapEnv(env alloc.Env, qt *qtimes) alloc.Env {
	t := timedEnv{Env: env, qt: qt}
	if ap, ok := env.(alloc.SatisfactionAppender); ok {
		return appenderEnv{timedEnv: t, ap: ap}
	}
	return t
}

// countedWorker counts the mediator's Snapshot calls on a live worker; the
// embedded *sbqa.LiveWorker keeps it an executor and a capability reporter.
type countedWorker struct {
	*sbqa.LiveWorker
	snaps *atomic.Int64
}

func (c countedWorker) Snapshot(now float64) model.ProviderSnapshot {
	c.snaps.Add(1)
	return c.LiveWorker.Snapshot(now)
}

// remoteWorker is a live worker answering its intention through the
// webhook (ProviderParticipant), as sbqad's webhook workers do.
type remoteWorker struct {
	*sbqa.LiveWorker
	url    string
	client *http.Client
}

func (c remoteWorker) IntentionContext(ctx context.Context, q model.Query) (model.Intention, error) {
	var resp struct {
		Intention float64 `json:"intention"`
	}
	body := map[string]any{"query": map[string]any{"id": q.ID, "consumer": q.Consumer, "class": q.Class, "n": q.N, "work": q.Work}}
	if err := postJSON(ctx, c.client, c.url, body, &resp); err != nil {
		return 0, err
	}
	return model.Intention(resp.Intention).Clamp(), nil
}

// countedRemoteWorker is a remoteWorker whose Snapshot calls are counted.
type countedRemoteWorker struct {
	countedWorker
	hook remoteWorker
}

func (c countedRemoteWorker) IntentionContext(ctx context.Context, q model.Query) (model.Intention, error) {
	return c.hook.IntentionContext(ctx, q)
}

// remoteConsumer answers CI_q for a whole batch through the webhook, as
// sbqad's webhook consumers do.
type remoteConsumer struct {
	id       model.ConsumerID
	url      string
	fallback model.Intention
	client   *http.Client
}

func (rc *remoteConsumer) ConsumerID() model.ConsumerID { return rc.id }
func (rc *remoteConsumer) Intention(model.Query, model.ProviderSnapshot) model.Intention {
	return rc.fallback
}

func (rc *remoteConsumer) Intentions(ctx context.Context, q model.Query, kn []model.ProviderSnapshot) ([]model.Intention, error) {
	cands := make([]map[string]any, len(kn))
	for i, s := range kn {
		cands[i] = map[string]any{"id": s.ID, "utilization": s.Utilization, "queue_len": s.QueueLen,
			"capacity": s.Capacity, "pending_work": s.PendingWork}
	}
	body := map[string]any{"query": map[string]any{"id": q.ID, "consumer": q.Consumer, "class": q.Class, "n": q.N, "work": q.Work},
		"candidates": cands}
	var resp struct {
		Intentions []float64 `json:"intentions"`
	}
	if err := postJSON(ctx, rc.client, rc.url, body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Intentions) != len(kn) {
		return nil, fmt.Errorf("webhook %s: %d intentions for %d candidates", rc.url, len(resp.Intentions), len(kn))
	}
	out := make([]model.Intention, len(kn))
	for i, v := range resp.Intentions {
		out[i] = model.Intention(v).Clamp()
	}
	return out, nil
}

func postJSON(ctx context.Context, c *http.Client, url string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("webhook %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// preferIdle is the in-process consumer sbqad registers for prefer_idle:
// base intention minus the candidate's utilisation.
func preferIdle(id int, base float64) sbqa.LiveFuncConsumer {
	return sbqa.LiveFuncConsumer{
		ID: sbqa.ConsumerID(id),
		Fn: func(_ sbqa.Query, s sbqa.ProviderSnapshot) sbqa.Intention {
			return sbqa.Intention(base - s.Utilization).Clamp()
		},
	}
}

// engineOptions mirrors the daemon's flags for workload w. Allocators come
// from the boot policy through factory instead of WithPolicy, so they can
// be wrapped; both build identical allocators.
func (w *workload) engineOptions(factory func(int) alloc.Allocator, stateDir string) []sbqa.EngineOption {
	opts := []sbqa.EngineOption{
		sbqa.WithWindow(100),
		sbqa.WithConcurrency(2),
		sbqa.WithAllocatorFactory(factory),
		sbqa.WithQueueDepth(1024),
		sbqa.WithParticipantDeadline(250 * time.Millisecond),
	}
	if w.qos {
		opts = append(opts, sbqa.WithQoS(sbqa.DefaultQoSSpec()))
	}
	if w.durable {
		opts = append(opts, sbqa.WithPersistence(stateDir))
	}
	return opts
}

// engineReplay is the in-process engine with its fleet, driven open loop.
type engineReplay struct {
	eng     *sbqa.Engine
	p       *probe
	snaps   atomic.Int64
	workers []*sbqa.LiveWorker
}

// newEngineReplay builds the engine with the workload's fleet. With wrap,
// the allocator, Env and providers are wrapped to record timestamps and
// count snapshots, as the traced run uses it; without, they are registered
// bare. extra options follow the workload's.
func (r *run) newEngineReplay(stateDir string, wrap bool, extra ...sbqa.EngineOption) (*engineReplay, error) {
	w := r.w
	er := &engineReplay{p: newProbe()}
	spec := bootSpec()
	factory := func(shard int) alloc.Allocator {
		a, err := spec.Build(shard)
		if err != nil {
			panic(err)
		}
		if !wrap {
			return a
		}
		return wrapAllocator(a, er.p)
	}
	eng, err := sbqa.NewEngine(append(w.engineOptions(factory, stateDir), extra...)...)
	if err != nil {
		return nil, err
	}
	er.eng = eng
	hooks := &http.Client{Timeout: 30 * time.Second}
	for id := range w.consumers {
		base := r.sched.consumerBase[id]
		if w.remoteConsumer(id) {
			eng.RegisterConsumer(&remoteConsumer{id: model.ConsumerID(id), url: r.hookBase() + "/c/" + strconv.Itoa(id),
				fallback: model.Intention(base).Clamp(), client: hooks})
		} else {
			eng.RegisterConsumer(preferIdle(id, base))
		}
	}
	for id := range w.workers {
		in := sbqa.Intention(workerIntention(id)).Clamp()
		lw, err := sbqa.NewLiveWorker(sbqa.ProviderID(id), w.capacity, w.queueCap, func(sbqa.Query) sbqa.Intention { return in })
		if err != nil {
			return nil, err
		}
		if cl := w.workerClasses(id); cl != nil {
			lw.SetClasses(cl...)
		}
		er.workers = append(er.workers, lw)
		cw := countedWorker{LiveWorker: lw, snaps: &er.snaps}
		switch {
		case w.remoteWorker(id) && wrap:
			rw := remoteWorker{LiveWorker: lw, url: r.hookBase() + "/w/" + strconv.Itoa(id), client: hooks}
			eng.RegisterProvider(countedRemoteWorker{countedWorker: cw, hook: rw})
		case w.remoteWorker(id):
			eng.RegisterProvider(remoteWorker{LiveWorker: lw, url: r.hookBase() + "/w/" + strconv.Itoa(id), client: hooks})
		case wrap:
			eng.RegisterProvider(cw)
		default:
			eng.RegisterProvider(lw)
		}
	}
	return er, nil
}

func (er *engineReplay) close() {
	er.eng.Close()
	for _, lw := range er.workers {
		lw.Close()
	}
}

// engineQuery is generated query q as the daemon submits it to its engine.
func (w *workload) engineQuery(q query) (sbqa.Query, []sbqa.QueryOption) {
	sq := sbqa.Query{Consumer: sbqa.ConsumerID(q.consumer), Class: q.class, N: queryN, Work: w.work}
	if !w.qos {
		return sq, nil
	}
	return sq, []sbqa.QueryOption{sbqa.WithQoSClass(qosNames[q.qos]), sbqa.WithDeadline(qosDeadlineMS * time.Millisecond)}
}

// drive submits qs through openLoop at rate for dur, waiting for each
// allocation. It returns the queries sent and allocated.
func (er *engineReplay) drive(w *workload, qs []query, rate float64, dur time.Duration) (sent, allocated int, err error) {
	var nSent, nOK atomic.Int64
	_, err = openLoop(qs, rate, dur, func(i int, _ int64) {
		q, opts := w.engineQuery(qs[i])
		t0 := now()
		t := er.eng.Submit(context.Background(), q, opts...)
		a, err := t.Allocation()
		t1 := now()
		nSent.Add(1)
		qt := er.p.at(t.Query().ID)
		qt.submit, qt.done, qt.remote = t0, t1, w.remoteConsumer(qs[i].consumer)
		if err == nil && a != nil {
			nOK.Add(1)
		}
	})
	return int(nSent.Load()), int(nOK.Load()), err
}

// spans turns the recorded timestamps into the layer span tree:
// live.submit ⊃ {live.queue_wait, core.allocate ⊃ fanout, live.dispatch}.
func (er *engineReplay) spans(log *spanLog) {
	er.p.mu.Lock()
	defer er.p.mu.Unlock()
	for id, t := range er.p.byQ {
		if t.submit == 0 || t.allocStart == 0 {
			continue
		}
		qid := int64(id)
		root := log.add("live.submit", t.submit, t.done, -1, qid)
		log.add("live.queue_wait", t.submit, t.allocStart, root, qid)
		a := log.add("core.allocate", t.allocStart, t.allocEnd, root, qid)
		if t.fanStart != 0 {
			name := "fanout.local"
			if t.remote {
				name = "fanout.remote"
			}
			log.add(name, t.fanStart, t.fanEnd, a, qid)
		}
		log.add("live.dispatch", t.allocEnd, t.done, root, qid)
	}
}

// staticProvider is a provider with a fixed snapshot: the layer replays
// run on it so their inputs do not drift with real worker queues.
type staticProvider struct {
	id      model.ProviderID
	util    float64
	in      model.Intention
	classes []int
}

func (s *staticProvider) ProviderID() model.ProviderID { return s.id }
func (s *staticProvider) Snapshot(float64) model.ProviderSnapshot {
	return model.ProviderSnapshot{ID: s.id, Utilization: s.util, Capacity: 100}
}
func (s *staticProvider) Intention(model.Query) model.Intention { return s.in }
func (s *staticProvider) Bid(model.Query) float64               { return s.util }
func (s *staticProvider) CanPerform(q model.Query) bool {
	if s.classes == nil {
		return true
	}
	for _, c := range s.classes {
		if c == q.Class {
			return true
		}
	}
	return false
}
func (s *staticProvider) Capabilities() []int { return s.classes }

// staticFleet builds workload w's providers with utilisations drawn from
// seed around the target utilisation.
func (w *workload) staticFleet(seed uint64) []*staticProvider {
	rng := newRNG(seed, streamReplay)
	out := make([]*staticProvider, w.workers)
	for id := range out {
		out[id] = &staticProvider{
			id: model.ProviderID(id), util: 2 * targetUtilisation * rng.Float64(),
			in: model.Intention(workerIntention(id)).Clamp(), classes: w.workerClasses(id),
		}
	}
	return out
}

// timeEach calls fn for i = 0, 1, ... until budget is spent (at least
// minCalls times) and returns each call's duration in ns.
func timeEach(budget time.Duration, minCalls int, fn func(i int)) []float64 {
	var out []float64
	end := now() + int64(budget)
	for i := 0; i < minCalls || now() < end; i++ {
		t := now()
		fn(i)
		out = append(out, float64(now()-t))
	}
	return out
}

func scaled(xs []float64, f float64) []float64 {
	for i := range xs {
		xs[i] *= f
	}
	return xs
}

// layerReplay times each layer alone on the replay inputs; results land in
// rep. budget bounds each layer's loop.
func (r *run) layerReplay(rep *report, budget time.Duration) error {
	w := r.w
	qs := w.queries(r.seed, streamReplay, 20000)
	mq := func(i int) model.Query {
		q := qs[i%len(qs)]
		return model.Query{ID: model.QueryID(i + 1), Consumer: model.ConsumerID(q.consumer), Class: q.class, N: queryN, Work: w.work}
	}
	fleet := w.staticFleet(r.seed)

	// Mediator over its own directory and registry, SbQA from the boot
	// policy wrapped to separate allocator time from the mediator's own.
	p := newProbe()
	a, err := bootSpec().Build(0)
	if err != nil {
		return err
	}
	dir := directory.New()
	med := mediator.New(wrapAllocator(a, p), mediator.Config{Window: 100, Directory: dir})
	for id := range w.consumers {
		med.RegisterConsumer(preferIdle(id, r.sched.consumerBase[id]))
	}
	for _, sp := range fleet {
		med.RegisterProvider(sp)
	}
	var allocs []*model.Allocation
	var selfs []float64
	mediate := timeEach(budget, 200, func(i int) {
		q := mq(i)
		t0 := now()
		al, err := med.Mediate(context.Background(), 0, q)
		d := now() - t0
		qt := p.at(q.ID)
		selfs = append(selfs, float64(d-(qt.allocEnd-qt.allocStart))/1e3)
		if err == nil && len(allocs) < 5000 {
			allocs = append(allocs, al)
		}
	})
	if len(allocs) == 0 {
		return fmt.Errorf("layer replay: no query could be mediated")
	}
	rep.set("mediator.mediate_us_p50", quantile(scaled(mediate, 1e-3), 0.5), "us", fmt.Sprintf("Mediator.Mediate, n=%d, P=%d", len(mediate), w.workers))
	rep.set("mediator.self_us_p50", quantile(selfs, 0.5), "us", "Mediate net of Allocator.Allocate")

	// Directory: discovery per query, registration churn at fleet size.
	var buf []directory.Provider
	cand := timeEach(budget, 200, func(i int) { buf = dir.Candidates(mq(i), buf[:0]) })
	rep.set("directory.candidates_us_p50", quantile(scaled(cand, 1e-3), 0.5), "us", fmt.Sprintf("Directory.Candidates, n=%d", len(cand)))
	var reg, unreg []float64
	for i := range 2000 {
		sp := &staticProvider{id: model.ProviderID(w.workers + 1000000 + i), classes: w.workerClasses(i)}
		t0 := now()
		dir.RegisterProvider(sp)
		t1 := now()
		dir.UnregisterProvider(sp.id)
		t2 := now()
		reg, unreg = append(reg, float64(t1-t0)/1e3), append(unreg, float64(t2-t1)/1e3)
	}
	rep.set("directory.register_us_p50", quantile(reg, 0.5), "us", "Directory.RegisterProvider")
	rep.set("directory.unregister_us_p50", quantile(unreg, 0.5), "us", "Directory.UnregisterProvider")

	// KnBest over each query's full candidate set.
	params := knbest.Params{K: 20, Kn: 10}
	sel := knbest.NewSelector(params, stats.NewRNG(r.seed))
	snapsOf := func(q model.Query) []model.ProviderSnapshot {
		buf = dir.Candidates(q, buf[:0])
		out := make([]model.ProviderSnapshot, len(buf))
		for j, c := range buf {
			out[j] = c.Snapshot(0)
		}
		return out
	}
	inputs := make([][]model.ProviderSnapshot, 64)
	for i := range inputs {
		inputs[i] = snapsOf(mq(i))
	}
	contacts := 0
	ks := timeEach(budget, 200, func(i int) { contacts += len(sel.SelectWith(params, inputs[i%len(inputs)])) })
	rep.set("knbest.select_us_p50", quantile(scaled(ks, 1e-3), 0.5), "us", fmt.Sprintf("Selector.SelectWith over %d candidates", len(inputs[0])))
	rep.set("knbest.contacts_per_query", float64(contacts)/float64(len(ks)), "count", "providers contacted (kn)")

	// Scoring and ranking of one kn batch.
	scorer := score.NewScorer()
	views := make([]score.View, len(inputs))
	for i, in := range inputs {
		kn := sel.SelectWith(params, in)
		v := score.View{SatC: 0.5}
		base := r.sched.consumerBase[mq(i).Consumer]
		for _, s := range kn {
			v.IDs = append(v.IDs, s.ID)
			v.PI = append(v.PI, model.Intention(workerIntention(int(s.ID))).Clamp())
			v.CI = append(v.CI, model.Intention(base-s.Utilization).Clamp())
			v.SatP = append(v.SatP, 0.5)
		}
		views[i] = v
	}
	omega, scores, order := make([]float64, 32), make([]float64, 32), make([]int, 32)
	var ranker score.FlatRanker
	sc := timeEach(budget, 200, func(i int) {
		v := views[i%len(views)]
		n := v.Len()
		scorer.ScoreInto(v, omega[:n], scores[:n])
		ranker.Rank(scores[:n], v.IDs, order[:n])
	})
	rep.set("score.rank_ns_p50", quantile(sc, 0.5), "ns", "Scorer.ScoreInto + FlatRanker.Rank at kn")

	// Satisfaction memory at window 100, fed the mediator's allocations.
	sreg := satisfaction.NewRegistry(100)
	var scratch []model.Intention
	rec := timeEach(budget, 200, func(i int) { scratch = sreg.RecordAllocationInto(allocs[i%len(allocs)], nil, scratch) })
	rep.set("satisfaction.record_us_p50", quantile(scaled(rec, 1e-3), 0.5), "us", "Registry.RecordAllocationInto, window 100")
	rd := timeEach(budget, 200, func(i int) {
		al := allocs[i%len(allocs)]
		sreg.ProviderSatisfaction(al.Proposed[i%len(al.Proposed)])
	})
	rep.set("satisfaction.provider_read_ns_p50", quantile(rd, 0.5), "ns", "Registry.ProviderSatisfaction")

	// QoS: admission and the class scheduler at the workload's class mix.
	clock := func() float64 { return float64(now()) / 1e9 }
	qspec := qos.DefaultSpec()
	qspec.ConsumerRate = 1e9 // never refuses: times the check, not a refusal
	lim := qos.NewLimiter(qspec, clock)
	la := timeEach(budget, 200, func(i int) {
		q := qs[i%len(qs)]
		lim.Allow(int64(q.consumer), qosNames[q.qos])
	})
	rep.set("qos.limiter_allow_ns_p50", quantile(la, 0.5), "ns", "Limiter.Allow")
	sched := qos.NewScheduler[int](qos.DefaultSpec(), 1024, clock)
	classIx := make([]int, len(qosNames))
	for i, n := range qosNames {
		classIx[i], _ = sched.ClassIndex(n)
	}
	pp := timeEach(budget, 200, func(i int) {
		sched.Push(context.Background(), classIx[qs[i%len(qs)].qos], clock()+qosDeadlineMS/1e3, i)
		sched.Pop()
	})
	sched.Close()
	rep.set("qos.push_pop_ns_p50", quantile(pp, 0.5), "ns", "Scheduler.Push + Pop at the 70/20/10 mix")

	// Persistence: the journal recorder's hand-off.
	pdir, err := r.tempDir("persist-")
	if err != nil {
		return err
	}
	store, err := persist.Open(pdir)
	if err != nil {
		return err
	}
	if _, err := store.Restore(satisfaction.NewRegistry(100)); err != nil {
		return err
	}
	prec := store.NewRecorder()
	prec.Start()
	oa := timeEach(budget, 200, func(i int) { prec.OnAllocation(allocs[i%len(allocs)], 0) })
	prec.Close()
	store.Close()
	rep.set("persist.on_allocation_ns_p50", quantile(oa, 0.5), "ns", "Recorder.OnAllocation")
	return nil
}
