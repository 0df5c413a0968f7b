package main

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"sbqa"
	"sbqa/internal/model"
)

// The same seed must generate the same queries, churn and policy schedule,
// and another seed another one.
func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := newSchedule(w, 7), newSchedule(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: schedule differs for the same seed", w.name)
		}
		if !reflect.DeepEqual(w.queries(7, streamNominal, 500), w.queries(7, streamNominal, 500)) {
			t.Fatalf("%s: queries differ for the same seed", w.name)
		}
		h1, h2 := hashSchedule(w, 7, a, 2000), hashSchedule(w, 7, b, 2000)
		if h1 != h2 {
			t.Fatalf("%s: schedule hash %x != %x for the same seed", w.name, h1, h2)
		}
		if h3 := hashSchedule(w, 8, newSchedule(w, 8), 2000); h3 == h1 {
			t.Fatalf("%s: seeds 7 and 8 hash alike (%x)", w.name, h1)
		}
	}
}

// Every consumer population is the same multiset of base intentions; the
// seed only assigns them.
func TestConsumerPopulationFixed(t *testing.T) {
	w := workloads[0]
	sum := func(s *schedule) (t float64) {
		for _, v := range s.consumerBase {
			t += v
		}
		return t
	}
	if a, b := sum(newSchedule(w, 1)), sum(newSchedule(w, 2)); a-b > 1e-9 || b-a > 1e-9 {
		t.Fatalf("population differs across seeds: %v vs %v", a, b)
	}
}

// The wrapped in-process engine the traced run replays through must make
// byte-identical allocations to the unwrapped engine on the same inputs
// under a virtual clock, so the replay measures the same program. Both are
// built by newEngineReplay with every workload's options, live workers,
// webhook participants and, when wrapped, the allocator, Env and provider
// wrappers the replay uses.
func TestWrappedEngineAllocatesIdentically(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// Workers serve at once and each query is awaited before the
			// next, so every mediation sees empty queues: snapshots, and so
			// allocations, do not depend on timing.
			wc := *w
			wc.capacity = 1e9
			r := &run{w: &wc, seed: 3, workdir: t.TempDir()}
			if err := r.prepare(); err != nil {
				t.Fatal(err)
			}
			defer r.close()
			qs := wc.queries(3, streamReplay, 200)
			replay := func(wrap bool) []byte {
				dir, err := r.tempDir("state-")
				if err != nil {
					t.Fatal(err)
				}
				// The virtual clock is read by the shard goroutines.
				var clock atomic.Uint64
				tick := func() float64 { return math.Float64frombits(clock.Load()) }
				er, err := r.newEngineReplay(dir, wrap, sbqa.WithClock(tick))
				if err != nil {
					t.Fatal(err)
				}
				defer er.close()
				var out []*model.Allocation
				for _, q := range qs {
					clock.Store(math.Float64bits(tick() + 0.01))
					sq, opts := wc.engineQuery(q)
					tk := er.eng.Submit(context.Background(), sq, opts...)
					a, err := tk.Allocation()
					if err != nil {
						t.Fatal(err)
					}
					if _, err := tk.Await(context.Background()); err != nil {
						t.Fatal(err)
					}
					out = append(out, a)
				}
				er.p.mu.Lock()
				seen := len(er.p.byQ)
				er.p.mu.Unlock()
				if wrap && (seen != len(qs) || er.snaps.Load() == 0) {
					t.Fatalf("wrappers saw %d of %d mediations and %d snapshots", seen, len(qs), er.snaps.Load())
				}
				b, err := json.Marshal(out)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			plain, wrapped := replay(false), replay(true)
			if string(plain) != string(wrapped) {
				t.Fatalf("wrapped engine allocates differently (%d vs %d bytes)", len(plain), len(wrapped))
			}
		})
	}
}
