package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbqa"
)

// TestHugeQueueCapIsABound: queue_cap bounds a worker's backlog without
// reserving memory for it, so a registration asking for two billion slots
// costs no more than any other and the worker serves queries normally.
func TestHugeQueueCapIsABound(t *testing.T) {
	gw, err := newGateway(
		sbqa.WithWindow(50),
		sbqa.WithAllocator(sbqa.NewSbQA(sbqa.SbQAConfig{KnBest: sbqa.KnBestParams{K: 4, Kn: 2}})),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	srv := httptest.NewServer(gw.handler())
	defer srv.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	resp := postJSON(t, srv.URL+"/v1/workers", workerRequest{ID: 7, Capacity: 1000, QueueCap: 2_000_000_000, Intention: 0.5}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("worker registration status %d", resp.StatusCode)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("registering one worker grew the heap by %d bytes", grew)
	}

	postJSON(t, srv.URL+"/v1/consumers", consumerRequest{ID: 0, Intention: 0.8}, nil)
	var qr queryResponse
	postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: 0, N: 1, Work: 0.5, Wait: "allocation"}, &qr)
	if qr.Error != "" {
		t.Fatalf("submit error: %s", qr.Error)
	}
	if len(qr.Selected) != 1 || qr.Selected[0] != 7 {
		t.Fatalf("selected %v, want worker 7", qr.Selected)
	}
}

// TestWebhookClientReusesConnections: the webhook client keeps enough idle
// connections per host that repeated bursts of concurrent intention calls
// to one participant server run on the connections the first burst opened.
func TestWebhookClientReusesConnections(t *testing.T) {
	const burst = webhookMaxIdleConnsPerHost
	var newConns, inflight atomic.Int64
	var release atomic.Pointer[chan struct{}]
	hook := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		inflight.Add(1)
		<-*release.Load()
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"intention":0.5}`)
	}))
	hook.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			newConns.Add(1)
		}
	}
	hook.Start()
	defer hook.Close()

	client := newGatewayShell().webhookClient
	defer client.CloseIdleConnections()
	for round := 0; round < 4; round++ {
		gate := make(chan struct{})
		release.Store(&gate)
		inflight.Store(0)
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var out workerWebhookResponse
				if err := postWebhookJSON(context.Background(), client, hook.URL, "", intentionWebhookRequest{}, &out); err != nil {
					t.Error(err)
				}
			}()
		}
		// Hold every call open until the whole burst is in flight, so each
		// round needs burst connections at once.
		deadline := time.Now().Add(10 * time.Second)
		for inflight.Load() < burst && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		close(gate)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if n := newConns.Load(); n != burst {
			t.Fatalf("after burst %d of %d concurrent calls: %d connections opened in all, want %d", round+1, burst, n, burst)
		}
	}
}
