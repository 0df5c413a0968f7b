package mediator

import (
	"context"
	"testing"

	"sbqa/internal/alloc"
	"sbqa/internal/model"
)

// retainingAllocator violates the alloc.Allocator candidates contract on
// purpose: it keeps the candidates slice it was handed instead of copying it.
type retainingAllocator struct {
	retained []model.ProviderSnapshot
}

func (r *retainingAllocator) Name() string      { return "retaining" }
func (r *retainingAllocator) Interactive() bool { return false }
func (r *retainingAllocator) Allocate(_ context.Context, _ alloc.Env, q model.Query, candidates []model.ProviderSnapshot) (*model.Allocation, error) {
	r.retained = candidates // the bug under test
	a := &model.Allocation{Query: q}
	a.Proposed = append(a.Proposed, candidates[0].ID)
	a.Selected = append(a.Selected, candidates[0].ID)
	return a, nil
}

// TestSnapshotBufferReuse exercises the documented aliasing hazard of
// Mediator.snapshots: the candidates slice handed to the allocator is
// per-shard scratch, overwritten by the next mediation. An allocator that
// retains it (instead of copying, as alloc.Allocator requires) observes its
// "past" candidate set mutate under it. The test pins the scratch-reuse
// behavior — if this test starts failing because the retained slice stayed
// intact, snapshots began allocating per mediation and the zero-allocation
// hot path regressed.
func TestSnapshotBufferReuse(t *testing.T) {
	ra := &retainingAllocator{}
	m := New(ra, Config{Window: 10})
	m.RegisterConsumer(&fakeConsumer{id: 1})
	// Distinct utilizations make the snapshots distinguishable.
	m.RegisterProvider(&fakeProvider{id: 10, util: 0.10})
	m.RegisterProvider(&fakeProvider{id: 20, util: 0.20})

	if _, err := m.Mediate(bg, 0, q(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	first := append([]model.ProviderSnapshot(nil), ra.retained...)
	if len(first) != 2 {
		t.Fatalf("retained %d candidates, want 2", len(first))
	}
	aliased := ra.retained

	// Second mediation with a disjoint candidate set of the same size: the
	// scratch is overwritten in place.
	m.UnregisterProvider(10)
	m.UnregisterProvider(20)
	m.RegisterProvider(&fakeProvider{id: 30, util: 0.30})
	m.RegisterProvider(&fakeProvider{id: 40, util: 0.40})
	if _, err := m.Mediate(bg, 0, q(2, 1, 1)); err != nil {
		t.Fatal(err)
	}

	if aliased[0] == first[0] && aliased[1] == first[1] {
		t.Fatal("retained candidates slice was not overwritten by the next mediation — snapshots stopped reusing the shard scratch (hot-path allocation regression)")
	}
	if aliased[0].ID != 30 || aliased[1].ID != 40 {
		t.Fatalf("retained slice now holds %v/%v, want the second mediation's candidates 30/40",
			aliased[0].ID, aliased[1].ID)
	}
	// The copy taken before the overwrite is of course intact — copying is
	// exactly what the contract demands of allocators.
	if first[0].ID != 10 || first[1].ID != 20 {
		t.Fatalf("copied snapshot set changed: %v/%v", first[0].ID, first[1].ID)
	}
}
