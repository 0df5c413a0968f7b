package main

import (
	"fmt"
	"path/filepath"
	"strconv"

	"sbqa/internal/model"
)

// Shares of -seconds in a traced run.
const (
	tracedWindowShare = 0.15 // each of the untraced and traced HTTP windows
	stageWindowShare  = 0.1  // the -trace-sample 1 daemon
	replayWindowShare = 0.15 // the in-process engine
	layerShare        = 0.2  // the single-layer replays, split over them
	layerReplays      = 9
)

// traced is the per-layer run. It drives the daemon over HTTP twice at the
// nominal rate — once without spans, once recording them — then a daemon
// with every query traced for the stage cross-check, then replays the same
// inputs in process through the engine and through each layer alone.
func (r *run) traced() (*report, error) {
	if err := r.prepare(); err != nil {
		return nil, err
	}
	w := r.w
	log := &spanLog{}
	rep := newReport()
	win := seconds(tracedWindowShare * r.secs)

	// 1. HTTP, untraced then traced, on one daemon.
	if _, _, err := r.setup(); err != nil {
		return nil, err
	}
	r.lg = newLoadgen(w, r.d.base, r.fleet)
	bg, err := r.startBackground(log)
	if err != nil {
		return nil, err
	}
	defer bg.end()
	r.lg.run(r.queriesFor(streamWarm, w.rate, warmSeconds), w.rate, seconds(warmSeconds))
	untraced := r.lg.run(r.queriesFor(streamNominal, w.rate, win.Seconds()), w.rate, win)
	before, err := r.d.scrape(r.ctl)
	if err != nil {
		return nil, err
	}
	st0, err := r.stats()
	if err != nil {
		return nil, err
	}
	calls0, conns0 := r.hookCounts()
	r.lg.spans = log
	if r.hooks != nil {
		r.hooks.spans.Store(log)
	}
	ph := r.lg.run(r.queriesFor(streamTraced, w.rate, win.Seconds()), w.rate, win)
	r.lg.spans = nil
	if r.hooks != nil {
		r.hooks.spans.Store(nil)
	}
	calls1, conns1 := r.hookCounts()
	after, err := r.d.scrape(r.ctl)
	if err != nil {
		return nil, err
	}
	st1, err := r.stats()
	if err != nil {
		return nil, err
	}
	bg.end()
	if err := r.ledger(scrape{}); err != nil {
		return nil, err
	}
	if err := r.collect(bg); err != nil {
		return nil, err
	}
	r.d.stop()
	r.d = nil

	lags := ph.lags()
	http := log.durations("gateway.http")
	rep.set("loadgen.lag_p50_ms", quantile(lags, 0.5), "ms", "send time - scheduled time")
	rep.set("loadgen.lag_p99_ms", quantile(lags, 0.99), "ms", "")
	rep.set("loadgen.sent", float64(len(ph.samples)), "count", fmt.Sprintf("traced window of %.1f s at %.0f q/s", win.Seconds(), w.rate))
	rep.set("gateway.http_us_p50", quantile(http, 0.5), "us", "client round trip from the actual send")
	rep.set("gateway.http_us_p99", quantile(http, 0.99), "us", "")
	ok := 0
	for _, s := range ph.samples {
		if s.status == 200 {
			ok++
		}
	}
	rep.set("gateway.status.200", float64(ok), "count", "")
	rep.set("gateway.status.other", float64(len(ph.samples)-ok), "count", "any other status or transport error")
	overhead := (quantile(ph.latencies(), 0.5) - quantile(untraced.latencies(), 0.5)) * 1e3
	rep.set("trace.overhead_p50_us", overhead, "us", "traced - untraced alloc latency p50 (may be negative: noise)")

	meds := after.sum("sbqa_shard_mediations_total") - before.sum("sbqa_shard_mediations_total")
	delta := func(name string) float64 { return after.sum(name) - before.sum(name) }
	perMed := func(v float64) float64 { return v / max(1, meds) }
	rep.set("qos.shed", delta("sbqa_shed_total"), "count", "sbqa_shed_total over the traced window")
	rep.set("live.queue_high_water", after.max("sbqa_shard_queue_high_water"), "count", "deepest shard queue since start")
	rep.set("mediator.candidates_mean", after.mean("sbqa_shard_mean_candidates"), "count", "sbqa_shard_mean_candidates")
	rep.set("fanout.imputed_frac", perMed(delta("sbqa_shard_imputations_total")), "ratio", "imputations / mediations")
	remote, local := ph.latencies(true), ph.latencies(false)
	penalty := 0.0
	if len(remote) > 0 && len(local) > 0 {
		penalty = (quantile(remote, 0.5) - quantile(local, 0.5)) * 1e3
	}
	rep.set("fanout.remote_penalty_us_p50", penalty, "us", fmt.Sprintf("webhook-consumer - local p50 (n=%d/%d)", len(remote), len(local)))
	rep.set("fanout.webhook_calls_per_query", perMed(float64(calls1-calls0)), "count", "calls reaching the benchmark's webhook server")
	newPerCall := 0.0
	if calls1 > calls0 {
		newPerCall = float64(conns1-conns0) / float64(calls1-calls0)
	}
	rep.set("fanout.webhook_new_conns_per_call", newPerCall, "ratio", "new TCP connections / webhook calls")
	if st0.Persistence != nil && st1.Persistence != nil {
		app := float64(st1.Persistence.RecordsAppended - st0.Persistence.RecordsAppended)
		drop := float64(st1.Persistence.RecordsDropped - st0.Persistence.RecordsDropped)
		rep.set("persist.records_appended", app, "count", "/v1/stats persistence block, traced window")
		rep.set("persist.syncs", float64(st1.Persistence.Syncs-st0.Persistence.Syncs), "count", "")
		rep.set("persist.drop_frac", drop/max(1, app+drop), "ratio", "")
	} else {
		rep.set("persist.records_appended", 0, "count", "no -state-dir in this workload")
		rep.set("persist.syncs", 0, "count", "")
		rep.set("persist.drop_frac", 0, "ratio", "")
	}
	rep.set("policy.put_ms_p50", quantile(bg.putLat, 0.5), "ms", fmt.Sprintf("PUT /v1/policy round trip, n=%d", len(bg.putLat)))
	rep.set("policy.swaps", after.sum("sbqa_shard_policy_swaps_total"), "count", "sbqa_shard_policy_swaps_total since start")
	rep.set("daemon.gc_pause_ms_per_kq", delta("sbqa_go_gc_pause_seconds_total")*1e3/max(1e-3, meds/1e3), "ms", "GC pause per thousand queries")
	rep.set("daemon.heap_inuse_mb", after.sum("sbqa_go_heap_inuse_bytes")/(1<<20), "MB", "")
	rep.set("daemon.goroutines", after.sum("sbqa_go_goroutines"), "count", "")
	rep.set("tail.alloc_latency_p99_ms", ph.sliceP99(nominalSlice), "ms",
		fmt.Sprintf("median of %.1f s slices of the traced window", nominalSlice))
	regCalls := append(log.durations("directory.register"), log.durations("directory.unregister")...)
	rep.set("tail.register_latency_p99_ms", quantile(regCalls, 0.99)/1e3, "ms", fmt.Sprintf("churn calls, n=%d", len(regCalls)))
	if churn := log.durations("directory.register"); len(churn) > 0 {
		fmt.Printf("servebench: churn POST /v1/workers p50 %.3f ms, DELETE p50 %.3f ms (n=%d)\n",
			quantile(churn, 0.5)/1e3, quantile(log.durations("directory.unregister"), 0.5)/1e3, len(churn))
	}

	// 2. Stage cross-check: every query traced inside the daemon.
	stageWin := seconds(stageWindowShare * r.secs)
	buffer := int(w.rate*stageWin.Seconds()*1.5) + 1024
	if _, _, err := r.setup("-trace-sample", "1", "-trace-buffer", strconv.Itoa(buffer)); err != nil {
		return nil, err
	}
	r.lg = newLoadgen(w, r.d.base, r.fleet)
	// Each daemon or engine of the run draws from its own streams, 1000 apart
	// as the rounds of an end-to-end run do.
	r.lg.run(r.queriesFor(streamWarm+1000, w.rate, 0.5), w.rate, seconds(0.5))
	r.lg.run(r.queriesFor(streamTraced+1000, w.rate, stageWin.Seconds()), w.rate, stageWin)
	stages, err := r.d.scrape(r.ctl)
	if err != nil {
		return nil, err
	}
	if err := r.ledger(scrape{}); err != nil {
		return nil, err
	}
	if err := r.collect(nil); err != nil {
		return nil, err
	}
	r.d.stop()
	r.d = nil

	// 3. The engine in process, same flags, wrapped.
	sdir := ""
	if w.durable {
		if sdir, err = r.tempDir("replay-"); err != nil {
			return nil, err
		}
	}
	er, err := r.newEngineReplay(sdir, true)
	if err != nil {
		return nil, err
	}
	c0, n0 := r.hookCounts()
	if _, _, err := er.drive(w, r.queriesFor(streamWarm+2000, w.rate, warmSeconds), w.rate, seconds(warmSeconds)); err != nil {
		return nil, err
	}
	er.p.mu.Lock()
	er.p.byQ = make(map[model.QueryID]*qtimes)
	er.p.mu.Unlock()
	er.snaps.Store(0)
	replayWin := seconds(replayWindowShare * r.secs)
	sent, allocated, err := er.drive(w, r.queriesFor(streamReplay, w.rate, replayWin.Seconds()), w.rate, replayWin)
	er.close()
	if err != nil {
		return nil, err
	}
	if c1, n1 := r.hookCounts(); c1 > c0 {
		fmt.Printf("servebench: in-process replay made %d webhook calls on %d new connections\n", c1-c0, n1-n0)
	}
	if allocated < sent {
		r.violate("in-process replay: %d of %d queries not allocated", sent-allocated, sent)
	}
	elog := &spanLog{}
	er.spans(elog)
	self := elog.selfTimes()
	submit := elog.durations("live.submit")
	fan := append(elog.durations("fanout.local"), elog.durations("fanout.remote")...)
	qwait := elog.durations("live.queue_wait")
	rep.set("mediator.snapshots_per_query", float64(er.snaps.Load())/float64(max(1, sent)), "count",
		"Provider.Snapshot calls per query in the engine, counted by the provider wrapper")
	rep.set("live.submit_us_p50", quantile(submit, 0.5), "us", fmt.Sprintf("Engine.Submit -> Ticket.Allocation, n=%d", len(submit)))
	rep.set("live.submit_us_p99", quantile(submit, 0.99), "us", "")
	rep.set("live.dispatch_us_p50", quantile(elog.durations("live.dispatch"), 0.5), "us", "allocator return -> allocation")
	rep.set("qos.queue_wait_us_p99", quantile(qwait, 0.99), "us", "Submit -> allocator start (queue, discovery, snapshots)")
	rep.set("fanout.us_p50", quantile(fan, 0.5), "us", "Env.Intentions")
	rep.set("fanout.us_p99", quantile(fan, 0.99), "us", "")
	rep.set("core.allocate_self_us_p50", quantile(self["core.allocate"], 0.5), "us", "Allocator.Allocate net of fan-out")
	rep.set("gateway.edge_us_p50", quantile(http, 0.5)-quantile(submit, 0.5), "us", "gateway.http_us_p50 - live.submit_us_p50")
	for _, sp := range elog.spans {
		log.spans = append(log.spans, sp)
	}

	// 4. Each layer alone.
	if err := r.layerReplay(rep, seconds(layerShare*r.secs/layerReplays)); err != nil {
		return nil, err
	}

	// Reconciliation along the blocking path, medians of self times.
	path := []struct{ name, span string }{
		{"live.queue_wait", "live.queue_wait"},
		{"core.allocate (self)", "core.allocate"},
		{"fanout", ""},
		{"live.dispatch", "live.dispatch"},
	}
	sum := 0.0
	fmt.Printf("\nreconciliation (%s): blocking-path self times, p50 us\n", w.name)
	for _, p := range path {
		v := quantile(fan, 0.5)
		if p.span != "" {
			v = quantile(self[p.span], 0.5)
		}
		sum += v
		fmt.Printf("  %-28s %10.1f\n", p.name, v)
	}
	httpP50 := quantile(http, 0.5)
	fmt.Printf("  %-28s %10.1f\n  %-28s %10.1f\n", "sum of layers", sum, "gateway.http_us_p50", httpP50)
	fmt.Printf("  %-28s %10.1f (%.0f%% of the round trip: HTTP, JSON, loopback, gateway)\n", "residue", httpP50-sum, 100*(httpP50-sum)/max(1, httpP50))
	rep.set("reconcile.layers_us_p50", sum, "us", "sum of blocking-path self-time medians")
	rep.set("reconcile.residue_frac", (httpP50-sum)/max(1, httpP50), "ratio", "unexplained share of gateway.http_us_p50")

	fmt.Printf("\nstage cross-check (%s): daemon sbqa_stage_seconds means at -trace-sample 1 beside the outside numbers\n", w.name)
	hooks := append(log.durations("webhook.consumer"), log.durations("webhook.worker")...)
	outside := map[string]string{
		"participant": fmt.Sprintf("webhook handling p50 %.1f us (benchmark side)", quantile(hooks, 0.5)),
		"queue":       fmt.Sprintf("live.queue_wait p50 %.1f us", quantile(qwait, 0.5)),
		"fanout":      fmt.Sprintf("fanout.us p50 %.1f us", quantile(fan, 0.5)),
		"score":       fmt.Sprintf("core.allocate self p50 %.1f us", quantile(self["core.allocate"], 0.5)),
		"dispatch":    fmt.Sprintf("live.dispatch p50 %.1f us", quantile(elog.durations("live.dispatch"), 0.5)),
	}
	for _, stage := range stageNames(stages) {
		n := stages.sum("sbqa_stage_seconds_count", "stage", stage)
		fmt.Printf("  %-12s mean %10.1f us (n=%.0f)   %s\n", stage,
			1e6*stages.sum("sbqa_stage_seconds_sum", "stage", stage)/max(1, n), n, outside[stage])
	}

	path2 := filepath.Join(r.workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, r.seed))
	if err := log.write(path2); err != nil {
		return nil, err
	}
	fmt.Printf("\nservebench: %d spans written to %s\n", len(log.spans), path2)
	rep.print("per-layer (" + w.name + ")")
	return rep, nil
}

// stats reads GET /v1/stats.
func (r *run) stats() (statsResp, error) {
	var st statsResp
	_, err := call(r.ctl, "GET", r.d.base+"/v1/stats", nil, &st)
	return st, err
}

func (r *run) hookCounts() (calls, conns int64) {
	if r.hooks == nil {
		return 0, 0
	}
	return r.hooks.calls.Load(), r.hooks.newConns.Load()
}

// collect moves the generator's and the write traffic's failures into the
// run and counts its queries; it returns the generator's pacing failure.
func (r *run) collect(bg *background) error {
	if bg != nil {
		for _, e := range bg.errs {
			r.violate("write traffic: %s", e)
		}
	}
	r.lg.mu.Lock()
	defer r.lg.mu.Unlock()
	r.violations = append(r.violations, r.lg.violations...)
	r.attempted += r.lg.attempted
	r.failed += r.lg.attempted - r.lg.allocated
	return r.lg.err
}

// stageNames lists the stages of sbqa_stage_seconds in s.
func stageNames(s scrape) []string {
	seen := map[string]bool{}
	for _, p := range s {
		if p.name == "sbqa_stage_seconds_count" {
			seen[p.labels["stage"]] = true
		}
	}
	return sortedKeys(seen)
}
