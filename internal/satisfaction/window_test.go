package satisfaction

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"sbqa/internal/model"
)

// sameBits fails the test unless got and want are the same float64 bits.
func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v (%#x), reference %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestGrowOnDemandWindowBitIdentical: trackers whose window grows on demand
// report bit-identical Satisfaction, Adequation, AllocationSatisfaction and
// ExportState to a reference with all k slots allocated up front, through
// random record sequences that wrap the ring and through export/restore
// cycles at random points — for windows below, at and above the first
// chunk.
func TestGrowOnDemandWindowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 2009))
	windows := []int{1, 2, firstChunk - 1, firstChunk, firstChunk + 1, 17, DefaultWindow}
	for trial := 0; trial < 200; trial++ {
		k := windows[trial%len(windows)]
		lazyC, refC := NewConsumer(k), &ConsumerTracker{k: k, buf: make([]consumerRecord, k)}
		lazyP, refP := NewProvider(k), &ProviderTracker{k: k, buf: make([]providerRecord, k)}
		// Values outside [0,1] and [-1,1] exercise the clamps.
		val := func() float64 { return rng.Float64()*1.4 - 0.2 }
		steps := rng.IntN(3*k + 3)
		for i := 0; i < steps; i++ {
			obt, best, adq := val(), val(), val()
			lazyC.Record(obt, best, adq)
			refC.Record(obt, best, adq)
			pi, performed := model.Intention(2*val()-1), rng.IntN(3) == 0
			lazyP.Record(pi, performed)
			refP.Record(pi, performed)

			sameBits(t, "consumer Satisfaction", lazyC.Satisfaction(), refC.Satisfaction())
			sameBits(t, "consumer Adequation", lazyC.Adequation(), refC.Adequation())
			sameBits(t, "consumer AllocationSatisfaction", lazyC.AllocationSatisfaction(), refC.AllocationSatisfaction())
			sameBits(t, "provider Satisfaction", lazyP.Satisfaction(), refP.Satisfaction())
			sameBits(t, "provider Adequation", lazyP.Adequation(), refP.Adequation())
			sameBits(t, "provider AllocationSatisfaction", lazyP.AllocationSatisfaction(), refP.AllocationSatisfaction())
			sameBits(t, "provider PerformedShare", lazyP.PerformedShare(), refP.PerformedShare())
			if got, want := lazyC.ExportState(), refC.ExportState(); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d step %d: consumer export %+v, reference %+v", k, i, got, want)
			}
			if got, want := lazyP.ExportState(), refP.ExportState(); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d step %d: provider export %+v, reference %+v", k, i, got, want)
			}
			if rng.IntN(8) == 0 {
				var err error
				if lazyC, err = NewConsumerFromState(lazyC.ExportState()); err != nil {
					t.Fatal(err)
				}
				if lazyP, err = NewProviderFromState(lazyP.ExportState()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestWindowMemoryFollowsUse: a tracker keeps its records in the inline
// chunk while they fit and in exactly k slots once they do not, so it costs
// one allocation while sparsely used and two over its whole lifetime — no
// more than a tracker that allocated all k slots up front.
func TestWindowMemoryFollowsUse(t *testing.T) {
	const k = DefaultWindow
	p := NewProvider(k)
	for i := 0; i < 3*k; i++ {
		p.Record(0.5, i%2 == 0)
		inline := &p.buf[0] == &p.chunk[0]
		if want := i < firstChunk; inline != want {
			t.Fatalf("after %d records: window inline = %v, want %v", i+1, inline, want)
		}
		if !inline && len(p.buf) != k {
			t.Fatalf("after %d records the window holds %d slots, want %d", i+1, len(p.buf), k)
		}
	}
	sparse := testing.AllocsPerRun(20, func() {
		c := NewConsumer(k)
		for i := 0; i < firstChunk; i++ {
			c.Record(1, 1, 1)
		}
	})
	if sparse != 1 {
		t.Fatalf("a consumer with %d records costs %v allocations, want 1", firstChunk, sparse)
	}
	lifetime := testing.AllocsPerRun(20, func() {
		p := NewProvider(k)
		for i := 0; i < 3*k; i++ {
			p.Record(0.5, true)
		}
	})
	if lifetime != 2 {
		t.Fatalf("a provider's lifetime through wrap costs %v allocations, want 2", lifetime)
	}
	// A restored window starts at the size its records need.
	r, err := NewProviderFromState(ProviderState{K: k, Next: 3, Records: make([]ProviderRecordState, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if &r.buf[0] != &r.chunk[0] {
		t.Fatalf("restored 3-record window moved out of its inline chunk (%d slots)", len(r.buf))
	}
}
