package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// run is one benchmark invocation: one workload at one seed.
type run struct {
	w       *workload
	seed    uint64
	secs    float64
	bin     string
	workdir string

	sched *schedule
	hooks *hookServer
	ctl   *http.Client // registrations, churn, policy, scrapes

	d     *daemon
	fleet *fleet
	lg    *loadgen
	dirs  []string

	violations []string
	attempted  int
	failed     int
}

func (r *run) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// close stops the daemon and the webhook server and removes state dirs.
func (r *run) close() {
	r.d.stop()
	r.d = nil
	if r.hooks != nil {
		r.hooks.close()
	}
	for _, d := range r.dirs {
		os.RemoveAll(d)
	}
}

// prepare generates the schedule and starts the webhook server.
func (r *run) prepare() error {
	r.sched = newSchedule(r.w, r.seed)
	fmt.Printf("servebench: workload %s seed %d schedule %016x (%d workers, %d consumers, %.0f q/s nominal)\n",
		r.w.name, r.seed, hashSchedule(r.w, r.seed, r.sched, 10000), r.w.workers, r.w.consumers, r.w.rate)
	r.ctl = newClient(1)
	if r.w.webhookConsumerEvery > 0 || r.w.webhookWorkerEvery > 0 {
		h, err := startHooks()
		if err != nil {
			return err
		}
		r.hooks = h
	}
	return nil
}

// tempDir makes a directory under the work dir that close removes.
func (r *run) tempDir(prefix string) (string, error) {
	d, err := os.MkdirTemp(r.workdir, prefix)
	if err == nil {
		r.dirs = append(r.dirs, d)
	}
	return d, err
}

func (r *run) hookBase() string {
	if r.hooks == nil {
		return ""
	}
	return r.hooks.base
}

// setup starts a fresh daemon and registers the whole fleet. It returns the
// set-up time — daemon start until ready with every participant
// registered — and each registration's latency in ms.
func (r *run) setup(extra ...string) (time.Duration, []float64, error) {
	dir := ""
	if r.w.durable {
		var err error
		if dir, err = r.tempDir("state-"); err != nil {
			return 0, nil, err
		}
	}
	t0 := time.Now()
	d, err := startDaemon(r.bin, r.w, dir, extra...)
	if err != nil {
		return 0, nil, err
	}
	r.d = d
	if err := d.waitReady(r.ctl); err != nil {
		return 0, nil, err
	}
	f := newFleet(r.w)
	reg := newClient(procs)
	var (
		mu       sync.Mutex
		lats     []float64
		firstErr error
		wg       sync.WaitGroup
	)
	post := func(path string, body []byte) {
		t := now()
		code, err := call(reg, "POST", d.base+path, body, nil)
		mu.Lock()
		defer mu.Unlock()
		lats = append(lats, float64(now()-t)/1e6)
		if err == nil && code != http.StatusCreated {
			err = fmt.Errorf("POST %s: status %d", path, code)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for c := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := c; id < r.w.consumers; id += procs {
				post("/v1/consumers", r.w.consumerBody(id, r.sched.consumerBase[id], r.hookBase()))
			}
			for id := c; id < r.w.workers; id += procs {
				f.registered(id, now())
				post("/v1/workers", r.w.workerBody(id, r.hookBase()))
			}
		}()
	}
	wg.Wait()
	reg.CloseIdleConnections()
	if firstErr != nil {
		return 0, nil, firstErr
	}
	r.fleet = f
	return time.Since(t0), lats, nil
}

// The machine's speed on a shared host drifts between regimes up to twice
// apart, and a set-up's wall time drifts with it (its CPU time too: the
// set-up is CPU-bound). setup_s is therefore scaled by a calibration timed
// before every set-up: a reference workload that loads the machine the way
// a set-up does but runs none of the program's code.
const (
	calibRegistrations = 4000
	calibRefSeconds    = 0.15 // the calibration's time on the reference machine
)

// calibrate times calibRegistrations worker registrations posted over
// loopback HTTP, with the set-up's client and concurrency, to a handler in
// this process that decodes and stores them.
func (r *run) calibrate() (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	var mu sync.Mutex
	store := make(map[int]map[string]any)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var m map[string]any
		if err := json.NewDecoder(req.Body).Decode(&m); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		store[len(store)] = m
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		io.WriteString(w, `{"registered":true}`)
	})}
	served := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(served)
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	c := newClient(procs)
	defer c.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + "/v1/workers"
	errs := make(chan error, procs)
	t0 := time.Now()
	for g := range procs {
		go func() {
			for id := g; id < calibRegistrations; id += procs {
				if code, err := call(c, "POST", url, r.w.workerBody(id, r.hookBase()), nil); err != nil || code != http.StatusCreated {
					errs <- fmt.Errorf("calibration POST: status %d err %v", code, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for range procs {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	return time.Since(t0), err
}

// background runs the workload's write traffic beside the query load until
// end is called: worker churn and policy swaps. It keeps the latencies of
// the churn calls and of the policy PUTs (ms).
type background struct {
	stop     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup
	mu       sync.Mutex
	churnLat []float64
	putLat   []float64
	errs     []string
}

func (r *run) startBackground(spans *spanLog) (*background, error) {
	b := &background{stop: make(chan struct{})}
	var policy map[string]any
	if r.w.policyEvery > 0 {
		var resp struct {
			Policy map[string]any `json:"policy"`
		}
		if _, err := call(r.ctl, "GET", r.d.base+"/v1/policy", nil, &resp); err != nil {
			return nil, err
		}
		policy = resp.Policy
	}
	fail := func(format string, args ...any) {
		b.mu.Lock()
		if len(b.errs) < 10 {
			b.errs = append(b.errs, fmt.Sprintf(format, args...))
		}
		b.mu.Unlock()
	}
	timed := func(name, method, path string, body []byte, want int) float64 {
		t := now()
		code, err := call(r.ctl, method, r.d.base+path, body, nil)
		e := now()
		spans.add(name, t, e, -1, 0)
		if err != nil || code != want {
			fail("%s %s: status %d err %v", method, path, code, err)
		}
		return float64(e-t) / 1e6
	}
	tick := func(every time.Duration, fn func(k int)) {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			start := time.Now()
			for k := 0; ; k++ {
				select {
				case <-b.stop:
					return
				case <-time.After(time.Until(start.Add(time.Duration(k+1) * every))):
				}
				fn(k)
			}
		}()
	}
	if r.w.churnEvery > 0 {
		tick(r.w.churnEvery, func(k int) {
			if k >= len(r.sched.churn) {
				return
			}
			ev := r.sched.churn[k]
			l1 := timed("directory.unregister", "DELETE", "/v1/workers/"+strconv.Itoa(ev.victim), nil, http.StatusOK)
			r.fleet.unregistered(ev.victim, now())
			r.fleet.registered(ev.fresh, now())
			l2 := timed("directory.register", "POST", "/v1/workers", r.w.workerBody(ev.fresh, r.hookBase()), http.StatusCreated)
			b.mu.Lock()
			b.churnLat = append(b.churnLat, l1, l2)
			b.mu.Unlock()
		})
	}
	if r.w.policyEvery > 0 {
		tick(r.w.policyEvery, func(k int) {
			policy["kn"] = policyKn(k)
			body, _ := json.Marshal(policy)
			l := timed("policy.put", "PUT", "/v1/policy", body, http.StatusOK)
			b.mu.Lock()
			b.putLat = append(b.putLat, l)
			b.mu.Unlock()
		})
	}
	return b, nil
}

// end stops the write traffic and waits for it; later calls do nothing.
func (b *background) end() {
	b.once.Do(func() {
		close(b.stop)
		b.wg.Wait()
	})
}

// statsResp is the part of GET /v1/stats the benchmark reads.
type statsResp struct {
	Satisfaction struct {
		Consumers map[string]float64 `json:"consumers"`
		Providers map[string]float64 `json:"providers"`
	} `json:"satisfaction"`
	Persistence *struct {
		RecordsAppended uint64 `json:"records_appended"`
		RecordsDropped  uint64 `json:"records_dropped"`
		Syncs           uint64 `json:"syncs"`
	} `json:"persistence"`
}

// satisfaction returns the mean δs of the consumers and of the providers
// that took part in at least one allocation the generator saw.
func (r *run) satisfaction() (float64, float64, int, int, error) {
	var st statsResp
	if _, err := call(r.ctl, "GET", r.d.base+"/v1/stats", nil, &st); err != nil {
		return 0, 0, 0, 0, err
	}
	r.lg.mu.Lock()
	defer r.lg.mu.Unlock()
	var cs, ps []float64
	for id := range r.lg.consumers {
		if v, ok := st.Satisfaction.Consumers[strconv.Itoa(id)]; ok {
			cs = append(cs, v)
		}
	}
	for id := range r.lg.providers {
		if v, ok := st.Satisfaction.Providers[strconv.Itoa(id)]; ok {
			ps = append(ps, v)
		}
	}
	return mean(cs), mean(ps), len(cs), len(ps), nil
}

// ledger checks the daemon's books at the end of a run against the
// generator's: every 200 the generator saw is one mediation the daemon
// counted since before, and submitted = mediations + rejections + shed.
func (r *run) ledger(before scrape) error {
	after, err := r.d.scrape(r.ctl)
	if err != nil {
		return err
	}
	med := after.sum("sbqa_shard_mediations_total")
	rej := after.sum("sbqa_shard_rejections_total")
	shed := after.sum("sbqa_shed_total")
	sub := after.sum("sbqa_queries_submitted_total")
	r.lg.mu.Lock()
	ok200 := r.lg.statuses[http.StatusOK]
	r.lg.mu.Unlock()
	if d := med - before.sum("sbqa_shard_mediations_total"); d != float64(ok200) {
		r.violate("generator saw %d answers 200, daemon counted %.0f mediations", ok200, d)
	}
	if sub != med+rej+shed {
		r.violate("daemon ledger: submitted %.0f != mediations %.0f + rejections %.0f + shed %.0f", sub, med, rej, shed)
	}
	return nil
}

// An end-to-end run measures the workload on rounds fresh daemons in turn
// and reports the median over them, because a process's speed on a shared
// machine varies from one process to the next. Each round is a set-up, a
// warm-up, a window at the nominal rate, and a max-rate search.
const (
	rounds       = 3
	warmSeconds  = 1.0  // unmeasured warm-up of each round
	nominalShare = 0.3  // of -seconds, split over the rounds
	nominalSlice = 0.5  // seconds per p99 slice of a nominal window
	ladderSlice  = 0.25 // seconds per p99 slice of a rung
	// The max-rate ladder has rungs nominal·rungRatio^i for i in
	// [ladderLow, ladderHigh]; every round bisects it from rung 0, the
	// nominal window, in at most ladderProbes measured rungs.
	rungRatio    = 1.05
	ladderLow    = -16
	ladderHigh   = 48
	ladderProbes = 6
	// Every workload also sets up extraSetups more times without load,
	// for a steadier set-up median.
	extraSetups = 4
)

// queriesFor sizes a generated stream to cover dur at rate with margin.
func (r *run) queriesFor(stream uint64, rate, dur float64) []query {
	return r.w.queries(r.seed, stream, int(rate*dur*1.3)+100)
}

// round is what one daemon instance measured.
type round struct {
	setup      float64 // s
	regLat     []float64
	nom        *phase
	cpuPerQ    float64 // µs
	allocsPerQ float64 // heap allocations
	kbPerQ     float64 // heap bytes allocated, KB
	csat, psat float64
	nc, np     int
	hwm        float64 // MB
	steal      float64 // share of the machine's CPU time stolen by the hypervisor
	rung       int     // highest rung meeting the limits
	probes     string
}

// endToEnd is the untraced run.
func (r *run) endToEnd() (*report, error) {
	if err := r.prepare(); err != nil {
		return nil, err
	}
	w := r.w
	nomSecs := nominalShare * r.secs / rounds
	rungSecs := (1 - nominalShare) * r.secs / (rounds * ladderProbes)
	var setups, calibs []float64
	calibrated := func() error {
		c, err := r.calibrate()
		calibs = append(calibs, c.Seconds())
		return err
	}
	for range extraSetups {
		if err := calibrated(); err != nil {
			return nil, fmt.Errorf("calibration: %w", err)
		}
		dt, _, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.d.stop()
		r.d = nil
		setups = append(setups, dt.Seconds())
	}
	var rs []*round
	for k := range rounds {
		if err := calibrated(); err != nil {
			return nil, fmt.Errorf("calibration: %w", err)
		}
		rd, err := r.round(k, nomSecs, rungSecs)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", k+1, err)
		}
		rs = append(rs, rd)
		setups = append(setups, rd.setup)
	}

	med := func(f func(*round) float64) float64 {
		xs := make([]float64, len(rs))
		for i, rd := range rs {
			xs[i] = f(rd)
		}
		return quantile(xs, 0.5)
	}
	var lat, lags, regLat []float64
	samples, failed := 0, 0
	for _, rd := range rs {
		lat = append(lat, rd.nom.latencies()...)
		lags = append(lags, rd.nom.lags()...)
		regLat = append(regLat, rd.regLat...)
		samples += len(rd.nom.samples)
		failed += rd.nom.failed()
	}
	rep := newReport()
	n := fmt.Sprintf("n=%d at %.0f q/s; median of %d daemons", len(lat), w.rate, rounds)
	rep.info("alloc_latency_p50_ms", med(func(rd *round) float64 { return quantile(rd.nom.latencies(), 0.5) }), "ms", n)
	rep.info("alloc_latency_p99_ms", med(func(rd *round) float64 { return rd.nom.sliceP99(nominalSlice) }), "ms",
		fmt.Sprintf("%s; each daemon's median over %.1f s slices (pooled p99 %.3f)", n, nominalSlice, quantile(lat, 0.99)))
	probes := ""
	for i, rd := range rs {
		probes += fmt.Sprintf(" [%d]%s", i+1, rd.probes)
	}
	rep.info("max_rate_qps", med(func(rd *round) float64 { return w.rungRate(rd.rung) }), "1/s",
		fmt.Sprintf("p99<=%.0fms; median of %d daemons; rungs%s", w.p99LimitMS, rounds, probes))
	rep.info("allocated_frac", float64(samples-failed)/float64(max(1, samples)), "ratio",
		fmt.Sprintf("%d of %d at the nominal rate", samples-failed, samples))
	rep.info("failed_frac", float64(failed)/float64(max(1, samples)), "ratio", "1 - allocated_frac")
	rep.info("cpu_us_per_query", med(func(rd *round) float64 { return rd.cpuPerQ }), "us", "daemon user+system CPU; median of daemons")
	rep.set("allocs_per_query", med(func(rd *round) float64 { return rd.allocsPerQ }), "count",
		"daemon heap allocations (runtime Mallocs) over the nominal window / queries allocated")
	rep.set("alloc_kb_per_query", med(func(rd *round) float64 { return rd.kbPerQ }), "KB", "daemon heap bytes allocated (TotalAlloc) / queries allocated")
	rep.set("rss_peak_mb", med(func(rd *round) float64 { return rd.hwm }), "MB", "daemon VmHWM after the nominal window")
	setupWall, calib := quantile(setups, 0.5), quantile(calibs, 0.5)
	rep.set("setup_s", setupWall*calibRefSeconds/calib, "s",
		fmt.Sprintf("median of %d set-ups, scaled to a machine on which the calibration takes %.2f s", len(setups), calibRefSeconds))
	rep.info("setup_wall_s", setupWall, "s", fmt.Sprintf("median of %d set-ups as timed", len(setups)))
	rep.info("calibration_s", calib, "s", fmt.Sprintf("median of %d calibrations", len(calibs)))
	rep.set("consumer_sat_mean", med(func(rd *round) float64 { return rd.csat }), "ratio", fmt.Sprintf("%d consumers", rs[0].nc))
	rep.set("provider_sat_mean", med(func(rd *round) float64 { return rd.psat }), "ratio", fmt.Sprintf("%d providers", rs[0].np))
	regNote := fmt.Sprintf("n=%d set-up registrations (no churn in this workload)", len(regLat))
	if w.churnEvery > 0 {
		regNote = fmt.Sprintf("n=%d churn calls under load", len(regLat))
	}
	rep.info("register_latency_p99_ms", quantile(regLat, 0.99), "ms", regNote)

	steal := med(func(rd *round) float64 { return rd.steal })
	fmt.Printf("servebench: CPU stolen by the hypervisor during the nominal windows: %.1f%% (median of rounds)\n", 100*steal)
	if steal > 0.05 {
		warn("the machine lost %.0f%% of its CPU time to other tenants; latencies of this run are inflated", 100*steal)
	}
	lag50, lag99 := quantile(lags, 0.5), quantile(lags, 0.99)
	fmt.Printf("servebench: generator lateness p50 %.3f ms p99 %.3f ms beside latency p50 %.3f ms p99 %.3f ms\n",
		lag50, lag99, quantile(lat, 0.5), quantile(lat, 0.99))
	if lag50 > 0.5*quantile(lat, 0.5) {
		warn("generator lateness p50 %.3f ms is comparable to the latency it reports (%.3f ms)", lag50, quantile(lat, 0.5))
	}
	rep.print("end-to-end (" + w.name + ")")
	return rep, nil
}

// round runs one daemon instance: set-up, warm-up, nominal window, ladder.
func (r *run) round(k int, nomSecs, rungSecs float64) (*round, error) {
	w := r.w
	rd := &round{}
	dt, regLat, err := r.setup()
	if err != nil {
		return nil, err
	}
	defer func() {
		r.d.stop()
		r.d = nil
	}()
	rd.setup = dt.Seconds()
	r.lg = newLoadgen(w, r.d.base, r.fleet)
	before, err := r.d.scrape(r.ctl)
	if err != nil {
		return nil, err
	}
	bg, err := r.startBackground(nil)
	if err != nil {
		return nil, err
	}
	defer bg.end()
	stream := func(s uint64) uint64 { return s + 1000*uint64(k) }
	r.lg.run(r.queriesFor(stream(streamWarm), w.rate, warmSeconds), w.rate, seconds(warmSeconds))

	cpu0, err := procCPU(r.d.pid())
	if err != nil {
		return nil, err
	}
	m0, b0, err := r.d.allocs(r.ctl)
	if err != nil {
		return nil, err
	}
	s0, t0 := cpuTicks()
	rd.nom = r.lg.run(r.queriesFor(stream(streamNominal), w.rate, nomSecs), w.rate, seconds(nomSecs))
	s1, t1 := cpuTicks()
	m1, b1, err := r.d.allocs(r.ctl)
	if err != nil {
		return nil, err
	}
	rd.steal = float64(s1-s0) / float64(max(1, t1-t0))
	cpu1, err := procCPU(r.d.pid())
	if err != nil {
		return nil, err
	}
	allocated := len(rd.nom.samples) - rd.nom.failed()
	rd.cpuPerQ = float64(cpu1-cpu0) / 1e3 / float64(max(1, allocated))
	rd.allocsPerQ = (m1 - m0) / float64(max(1, allocated))
	rd.kbPerQ = (b1 - b0) / 1024 / float64(max(1, allocated))
	if rd.csat, rd.psat, rd.nc, rd.np, err = r.satisfaction(); err != nil {
		return nil, err
	}
	// Memory and the attempted/failed counts cover the workload at its
	// nominal rate: the ladder overloads on purpose, and how far it climbs
	// varies from run to run.
	if rd.hwm, err = procHWM(r.d.pid()); err != nil {
		return nil, err
	}
	r.lg.mu.Lock()
	r.attempted += r.lg.attempted
	r.failed += r.lg.attempted - r.lg.allocated
	r.lg.mu.Unlock()

	rd.rung, rd.probes = r.ladder(k, rd.nom, rungSecs)
	bg.end()
	if err := r.ledger(before); err != nil {
		return nil, err
	}
	for _, e := range bg.errs {
		r.violate("write traffic: %s", e)
	}
	r.lg.mu.Lock()
	r.violations = append(r.violations, r.lg.violations...)
	lgErr := r.lg.err
	r.lg.mu.Unlock()
	if lgErr != nil {
		return nil, lgErr
	}
	rd.regLat = regLat
	if w.churnEvery > 0 {
		rd.regLat = bg.churnLat
	}
	return rd, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// rungRate is the offered rate of ladder rung i: nominal·1.05^i.
func (w *workload) rungRate(i int) float64 { return w.rate * math.Pow(rungRatio, float64(i)) }

// ladder finds the highest rung that meets the workload's limits: p99
// within the limit, failures at most 0.1%, no growing backlog. It bisects
// the ladder, taking the nominal window as rung 0; a rung below ladderLow
// is taken to meet the limits and one above ladderHigh to miss them.
func (r *run) ladder(k int, nom *phase, rungSecs float64) (int, string) {
	w := r.w
	trace := ""
	lo, hi := ladderLow-1, ladderHigh+1
	for i := 0; hi-lo > 1; i = (lo + hi) / 2 {
		ok := nom.meets(w.p99LimitMS, nominalSlice)
		if i != 0 {
			qs := w.queries(r.seed, streamLadder+1000*uint64(k)+uint64(i-ladderLow), int(w.rungRate(i)*rungSecs*1.3)+100)
			ok = r.lg.run(qs, w.rungRate(i), seconds(rungSecs)).meets(w.p99LimitMS, ladderSlice)
			trace += fmt.Sprintf(" %.0f:%s", w.rungRate(i), map[bool]string{true: "ok", false: "x"}[ok])
			time.Sleep(100 * time.Millisecond) // let the daemon drain
		}
		if ok {
			lo = i
		} else {
			hi = i
		}
	}
	return lo, trace
}
