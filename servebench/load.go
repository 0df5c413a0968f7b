package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
)

// sample is one query the generator sent. Times are ns since epoch.
type sample struct {
	due, sent, recv int64
	status          int // 0 on a transport error
	ok              bool
	remote          bool // the consumer answers through a webhook
}

// phase is the outcome of one open-loop window.
type phase struct {
	rate    float64
	dur     time.Duration
	samples []sample
	// backlog counts queries due inside the window that the generator had
	// not sent when the window closed.
	backlog int
}

// latencies returns each query's latency from its scheduled send time, in
// ms; a query that was not allocated is excluded (it is counted as failed).
func (p *phase) latencies(remote ...bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.ok && (len(remote) == 0 || s.remote == remote[0]) {
			out = append(out, float64(s.recv-s.due)/1e6)
		}
	}
	return out
}

func (p *phase) lags() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = float64(s.sent-s.due) / 1e6
	}
	return out
}

func (p *phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// sliceP99 splits the window into slices of sliceSecs by due time and
// returns the median of the slices' p99 latencies (ms). A stall of the
// shared machine lands in one slice and moves the median little, where it
// would move the window's single p99 a lot.
func (p *phase) sliceP99(sliceSecs float64) float64 {
	if len(p.samples) == 0 {
		return 0
	}
	n := max(1, int(math.Round(p.dur.Seconds()/sliceSecs)))
	width := int64(p.dur) / int64(n)
	t0 := p.samples[0].due
	for _, s := range p.samples {
		t0 = min(t0, s.due)
	}
	slices := make([][]float64, n)
	for _, s := range p.samples {
		if s.ok {
			k := min(n-1, int((s.due-t0)/width))
			slices[k] = append(slices[k], float64(s.recv-s.due)/1e6)
		}
	}
	var p99s []float64
	for _, sl := range slices {
		if len(sl) > 0 {
			p99s = append(p99s, quantile(sl, 0.99))
		}
	}
	return quantile(p99s, 0.5)
}

// meets reports whether the window satisfies the max-rate conditions: p99
// (median over slices) within the limit, at most one failure in a
// thousand, and no backlog beyond what the limit itself would queue.
func (p *phase) meets(limitMS, sliceSecs float64) bool {
	if len(p.samples) == 0 {
		return false
	}
	if float64(p.failed()) > 0.001*float64(len(p.samples)) {
		return false
	}
	if float64(p.backlog) > max(4, p.rate*limitMS/1e3) {
		return false
	}
	return p.sliceP99(sliceSecs) <= limitMS
}

// loadgen drives the daemon's query endpoint and checks every answer.
type loadgen struct {
	w      *workload
	base   string
	client *http.Client
	fleet  *fleet
	spans  *spanLog

	mu         sync.Mutex
	ids        map[int64]struct{}
	consumers  map[int]bool // took part in at least one allocation
	providers  map[int]bool // proposed in at least one allocation
	violations []string
	err        error // pacing failure
	statuses   map[int]int
	allocated  int
	attempted  int
}

func newLoadgen(w *workload, base string, f *fleet) *loadgen {
	return &loadgen{
		w: w, base: base, client: newClient(conns), fleet: f,
		ids: make(map[int64]struct{}), consumers: make(map[int]bool),
		providers: make(map[int]bool), statuses: make(map[int]int),
	}
}

func (l *loadgen) body(q query) []byte {
	b := make([]byte, 0, 128)
	b = append(b, `{"consumer":`...)
	b = strconv.AppendInt(b, int64(q.consumer), 10)
	b = append(b, `,"class":`...)
	b = strconv.AppendInt(b, int64(q.class), 10)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, queryN, 10)
	b = append(b, `,"work":`...)
	b = strconv.AppendFloat(b, l.w.work, 'g', -1, 64)
	b = append(b, `,"wait":"allocation"`...)
	if l.w.qos {
		b = append(b, `,"qos":"`...)
		b = append(b, qosNames[q.qos]...)
		b = append(b, `","deadline_ms":`...)
		b = strconv.AppendInt(b, qosDeadlineMS, 10)
	}
	return append(b, '}')
}

// run offers qs at rate for dur through openLoop and records every query
// sent. A failure to pace is kept in l.err and ends the run at its next
// check; the phase is then empty.
func (l *loadgen) run(qs []query, rate float64, dur time.Duration) *phase {
	p := &phase{rate: rate, dur: dur}
	out := make([]sample, len(qs))
	sent := make([]bool, len(qs))
	backlog, err := openLoop(qs, rate, dur, func(i int, due int64) {
		out[i] = l.send(qs[i], due)
		sent[i] = true
	})
	if err != nil {
		l.mu.Lock()
		l.err = err
		l.mu.Unlock()
		return p
	}
	for i, ok := range sent {
		if ok {
			p.samples = append(p.samples, out[i])
		}
	}
	p.backlog = backlog
	return p
}

type queryResponse struct {
	QueryID  int64  `json:"query_id"`
	Selected []int  `json:"selected"`
	Proposed []int  `json:"proposed"`
	Error    string `json:"error"`
}

// send submits one query and checks its answer.
func (l *loadgen) send(q query, due int64) sample {
	s := sample{due: due, remote: l.w.remoteConsumer(q.consumer)}
	req, _ := http.NewRequest("POST", l.base+"/v1/queries", bytes.NewReader(l.body(q)))
	req.Header.Set("Content-Type", "application/json")
	s.sent = now()
	resp, err := l.client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	s.recv = now()
	var r queryResponse
	if err == nil && s.status == http.StatusOK {
		if jerr := json.Unmarshal(data, &r); jerr != nil {
			err = jerr
		}
	}
	if l.spans != nil {
		l.spans.add("loadgen.lag", s.due, s.sent, -1, r.QueryID)
		l.spans.add("gateway.http", s.sent, s.recv, -1, r.QueryID)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	l.statuses[s.status]++
	if err != nil || s.status != http.StatusOK {
		return s
	}
	// A 200 carrying an error is a dispatch failure the daemon reports as
	// such (a selected worker's queue was full or it had shut down). Its
	// selection is checked like any other, then it counts as not allocated.
	if len(r.Selected) > 0 || r.Error == "" {
		if v := l.check(q, r, s); v != "" {
			if len(l.violations) < 10 {
				l.violations = append(l.violations, v)
			}
			return s
		}
	}
	if r.Error != "" {
		return s
	}
	s.ok = true
	l.allocated++
	l.consumers[q.consumer] = true
	for _, p := range r.Proposed {
		l.providers[p] = true
	}
	return s
}

// check validates one 200 answer; it returns "" when the answer is correct.
// Called with l.mu held.
func (l *loadgen) check(q query, r queryResponse, s sample) string {
	if len(r.Selected) < 1 || len(r.Selected) > queryN {
		return fmt.Sprintf("query %d: %d selected, want 1..%d", r.QueryID, len(r.Selected), queryN)
	}
	if _, dup := l.ids[r.QueryID]; dup {
		return fmt.Sprintf("query ID %d answered twice", r.QueryID)
	}
	l.ids[r.QueryID] = struct{}{}
	for _, p := range r.Selected {
		if !slices.Contains(r.Proposed, p) {
			return fmt.Sprintf("query %d: selected %d not among proposed %v", r.QueryID, p, r.Proposed)
		}
		if !l.fleet.registeredDuring(p, s.sent, s.recv) {
			return fmt.Sprintf("query %d: selected %d was not registered", r.QueryID, p)
		}
		if !l.w.canPerform(p, q.class) {
			return fmt.Sprintf("query %d (class %d): selected %d cannot perform it", r.QueryID, q.class, p)
		}
	}
	return ""
}
