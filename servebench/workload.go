package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"
)

// workload is one traffic mix: the fleet the daemon serves, the open-loop
// query stream offered to it, and the write traffic (churn, policy swaps,
// webhook participants) that runs beside it.
type workload struct {
	name      string
	workers   int
	consumers int
	// classes is the number of capability classes queries ask for (drawn in
	// equal shares); specialistEvery > 0 restricts every specialistEvery-th
	// worker to class 1.
	classes         int
	specialistEvery int
	rate            float64 // nominal offered rate, queries/s
	p99LimitMS      float64 // latency limit of the max-rate ladder
	// capacity and work size worker service so that mean utilisation is
	// about 30% at the nominal rate: 2·rate/workers · work/capacity = 0.3.
	capacity float64
	work     float64
	// queueCap bounds each worker's task backlog: deep enough for the
	// max-rate ladder, small enough that 20k workers stay cheap.
	queueCap int
	qos      bool // -qos and the 70/20/10 interactive/batch/background mix
	durable  bool // -state-dir
	// churnEvery replaces one worker; policyEvery toggles kn between 10
	// and 12. Zero disables.
	churnEvery  time.Duration
	policyEvery time.Duration
	// webhookConsumerEvery / webhookWorkerEvery route every n-th consumer
	// or worker's intentions through the benchmark's webhook server.
	webhookConsumerEvery int
	webhookWorkerEvery   int
}

// queryN is the number of providers every query asks for.
const queryN = 2

// targetUtilisation is the mean worker busy fraction at the nominal rate.
const targetUtilisation = 0.3

var workloads = []*workload{
	{
		name: "edge-p200", workers: 200, consumers: 64, classes: 1,
		rate: 1500, p99LimitMS: 20, queueCap: 128,
	},
	{
		name: "fleet-p20k", workers: 20000, consumers: 256, classes: 2, specialistEvery: 10,
		rate: 300, p99LimitMS: 50, queueCap: 16,
	},
	{
		name: "churn-durable", workers: 2000, consumers: 256, classes: 2, specialistEvery: 10,
		rate: 800, p99LimitMS: 20, queueCap: 32, qos: true, durable: true,
		churnEvery: 100 * time.Millisecond, policyEvery: 5 * time.Second,
		webhookConsumerEvery: 4, webhookWorkerEvery: 20,
	},
}

func init() {
	for _, w := range workloads {
		w.capacity = 100
		w.work = targetUtilisation * float64(w.workers) / (queryN * w.rate) * w.capacity
	}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// workerIntention is every worker's constant intention, as in the repo's
// own benches.
func workerIntention(id int) float64 { return float64(id%9)/9 - 0.3 }

// workerClasses is the capability restriction of worker id (nil = any).
func (w *workload) workerClasses(id int) []int {
	if w.specialistEvery > 0 && id%w.specialistEvery == w.specialistEvery-1 {
		return []int{1}
	}
	return nil
}

func (w *workload) canPerform(id, class int) bool {
	cl := w.workerClasses(id)
	if cl == nil {
		return true
	}
	for _, c := range cl {
		if c == class {
			return true
		}
	}
	return false
}

func (w *workload) remoteWorker(id int) bool {
	return w.webhookWorkerEvery > 0 && id%w.webhookWorkerEvery == 0
}

func (w *workload) remoteConsumer(id int) bool {
	return w.webhookConsumerEvery > 0 && id%w.webhookConsumerEvery == 0
}

// consumerWebhookIntention is a remote consumer's answer for one candidate,
// computed from the IDs alone.
func consumerWebhookIntention(consumer, provider int) float64 {
	return float64((consumer*31+provider*17)%11)/10 - 0.2
}

// The QoS mix of churn-durable: 70/20/10 interactive/batch/background.
var qosNames = [...]string{"interactive", "batch", "background"}

// qosDeadlineMS is loose enough that nothing sheds at the nominal rate.
const qosDeadlineMS = 2000

// query is one generated submission. at is the arrival offset at unit rate
// (seconds × rate); a phase at rate r sends it at start + at/r.
type query struct {
	at       float64
	consumer int
	class    int
	qos      int // index into qosNames; unused without -qos
}

// churnEvent replaces worker victim by the fresh worker fresh.
type churnEvent struct {
	victim, fresh int
}

// schedule is everything a run generates from its seed.
type schedule struct {
	// consumerBase is each consumer's base intention: a seeded permutation
	// of fixed quantiles, so the population is the same for every seed and
	// only the assignment varies.
	consumerBase []float64
	churn        []churnEvent // one per churnEvery, in order
}

// policyKn is the kn of the k-th policy swap: 12, 10, 12, ...
func policyKn(k int) int { return 12 - 2*(k%2) }

// RNG streams: each phase of a run draws from its own stream of the seed.
const (
	streamSchedule = iota + 1
	streamWarm
	streamNominal
	streamTraced
	streamReplay
	streamLadder // + rung index
)

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x5eed0000+stream))
}

// maxChurnEvents bounds the pre-generated churn schedule (60 s at 100 ms,
// more than a run's load phases).
const maxChurnEvents = 600

func newSchedule(w *workload, seed uint64) *schedule {
	rng := newRNG(seed, streamSchedule)
	s := &schedule{consumerBase: make([]float64, w.consumers)}
	for i, j := range rng.Perm(w.consumers) {
		s.consumerBase[i] = 0.2 + 0.6*(float64(j)+0.5)/float64(w.consumers)
	}
	if w.churnEvery > 0 {
		live := make([]int, w.workers)
		for i := range live {
			live[i] = i
		}
		next := w.workers
		for range maxChurnEvents {
			k := rng.IntN(len(live))
			s.churn = append(s.churn, churnEvent{victim: live[k], fresh: next})
			live[k] = next
			next++
		}
	}
	return s
}

// queries generates n arrivals of a Poisson stream at unit rate with the
// consumer, capability class and QoS class of each drawn from the same
// stream.
func (w *workload) queries(seed, stream uint64, n int) []query {
	rng := newRNG(seed, stream)
	qs := make([]query, n)
	t := 0.0
	for i := range qs {
		t += rng.ExpFloat64()
		qs[i] = query{at: t, consumer: rng.IntN(w.consumers), class: rng.IntN(w.classes)}
		if w.qos {
			switch u := rng.Float64(); {
			case u < 0.7:
				qs[i].qos = 0
			case u < 0.9:
				qs[i].qos = 1
			default:
				qs[i].qos = 2
			}
		}
	}
	return qs
}

// hashSchedule fingerprints the schedule and the first n queries of the
// nominal stream, so two runs can be compared at a glance.
func hashSchedule(w *workload, seed uint64, s *schedule, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range s.consumerBase {
		put(math.Float64bits(v))
	}
	for _, c := range s.churn {
		put(uint64(c.victim))
		put(uint64(c.fresh))
	}
	for _, q := range w.queries(seed, streamNominal, n) {
		put(math.Float64bits(q.at))
		put(uint64(q.consumer))
		put(uint64(q.class))
		put(uint64(q.qos))
	}
	return h.Sum64()
}
