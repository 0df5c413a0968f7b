package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// fleet tracks when each worker was registered with the daemon, so every
// allocation can be checked against the fleet as it stood when the query
// was in flight. Worker IDs are never reused.
type fleet struct {
	w  *workload
	mu sync.RWMutex
	// live[id] is [registration sent, unregistration answered]; the end is
	// MaxInt64 while the worker is registered.
	live map[int][2]int64
}

func newFleet(w *workload) *fleet { return &fleet{w: w, live: make(map[int][2]int64)} }

func (f *fleet) registered(id int, at int64) {
	f.mu.Lock()
	f.live[id] = [2]int64{at, math.MaxInt64}
	f.mu.Unlock()
}

func (f *fleet) unregistered(id int, at int64) {
	f.mu.Lock()
	iv := f.live[id]
	iv[1] = at
	f.live[id] = iv
	f.mu.Unlock()
}

// registeredDuring reports whether worker id was registered at some point
// of [from, to].
func (f *fleet) registeredDuring(id int, from, to int64) bool {
	f.mu.RLock()
	iv, ok := f.live[id]
	f.mu.RUnlock()
	return ok && iv[0] <= to && iv[1] >= from
}

// workerBody is the POST /v1/workers request for worker id.
func (w *workload) workerBody(id int, hooks string) []byte {
	req := map[string]any{
		"id":        id,
		"capacity":  w.capacity,
		"queue_cap": w.queueCap,
		"intention": workerIntention(id),
	}
	if cl := w.workerClasses(id); cl != nil {
		req["classes"] = cl
	}
	if w.remoteWorker(id) {
		req["intention_url"] = hooks + "/w/" + strconv.Itoa(id)
	}
	b, _ := json.Marshal(req)
	return b
}

// consumerBody is the POST /v1/consumers request for consumer id.
func (w *workload) consumerBody(id int, base float64, hooks string) []byte {
	req := map[string]any{"id": id, "intention": base, "prefer_idle": true}
	if w.remoteConsumer(id) {
		req["intention_url"] = hooks + "/c/" + strconv.Itoa(id)
	}
	b, _ := json.Marshal(req)
	return b
}

// hookServer serves the remote participants' intention webhooks and counts
// calls and the TCP connections they arrive on.
type hookServer struct {
	srv      *http.Server
	base     string
	calls    atomic.Int64
	newConns atomic.Int64
	spans    atomic.Pointer[spanLog] // set in a traced run
}

func startHooks() (*hookServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hookServer{base: "http://" + ln.Addr().String()}
	h.srv = &http.Server{
		Handler: http.HandlerFunc(h.serve),
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				h.newConns.Add(1)
			}
		},
	}
	go h.srv.Serve(ln)
	return h, nil
}

func (h *hookServer) close() { h.srv.Close() }

type hookRequest struct {
	Query struct {
		ID int64 `json:"id"`
	} `json:"query"`
	Candidates []struct {
		ID int `json:"id"`
	} `json:"candidates"`
}

func (h *hookServer) serve(w http.ResponseWriter, r *http.Request) {
	start := now()
	h.calls.Add(1)
	kind, idStr, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
	id, err := strconv.Atoi(idStr)
	var req hookRequest
	if err == nil {
		err = json.NewDecoder(r.Body).Decode(&req)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	switch kind {
	case "c":
		out := make([]float64, len(req.Candidates))
		for i, c := range req.Candidates {
			out[i] = consumerWebhookIntention(id, c.ID)
		}
		json.NewEncoder(w).Encode(map[string][]float64{"intentions": out})
		h.spans.Load().add("webhook.consumer", start, now(), -1, req.Query.ID)
	case "w":
		fmt.Fprintf(w, `{"intention":%g}`, workerIntention(id))
		h.spans.Load().add("webhook.worker", start, now(), -1, req.Query.ID)
	default:
		http.NotFound(w, r)
	}
}
