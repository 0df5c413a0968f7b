package main

import (
	"testing"

	"sbqa"
)

// TestHubNoSubscriberFastPath: with no SSE client connected the observer
// builds no event, so an allocation costs the hub no allocation at all; a
// subscriber that connects later receives the events published after it
// subscribed, and once it leaves the hub is free again.
func TestHubNoSubscriberFastPath(t *testing.T) {
	h := newHub()
	obs := h.observer()
	a := &sbqa.Allocation{
		Query:    sbqa.Query{ID: 7, Consumer: 3},
		Selected: []sbqa.ProviderID{1, 2},
	}
	if allocs := testing.AllocsPerRun(100, func() { obs.OnAllocation(a, 5) }); allocs != 0 {
		t.Fatalf("Allocation observer with no subscriber allocates %v times, want 0", allocs)
	}

	ch, unsubscribe := h.subscribe()
	obs.OnAllocation(a, 5)
	select {
	case ev := <-ch:
		got, ok := ev.data.(allocationEvent)
		if ev.kind != "allocation" || !ok || got.QueryID != 7 || got.Consumer != 3 || len(got.Selected) != 2 || got.Candidates != 5 {
			t.Fatalf("subscriber got %q %+v, want the allocation of query 7", ev.kind, ev.data)
		}
	default:
		t.Fatal("subscriber connected before the allocation never received it")
	}

	unsubscribe()
	unsubscribe() // idempotent: the count stays consistent
	if h.active() {
		t.Fatal("hub still active with every subscriber gone")
	}
	if allocs := testing.AllocsPerRun(100, func() { obs.OnAllocation(a, 5) }); allocs != 0 {
		t.Fatalf("Allocation observer after the last unsubscribe allocates %v times, want 0", allocs)
	}
}
