// Command servebench is the served-path benchmark of sbqad: it starts the
// daemon built from this tree on loopback, registers a seeded fleet, drives
// it with open-loop query traffic, checks every answer, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer table) with a JSON
// summary as the last line of standard output.
//
//	servebench -sbqad bin/sbqad -workload edge-p200 -seed 1 -seconds 20 -trace 0
//
// run.sh builds both binaries from source and runs this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// procs is the generator's GOMAXPROCS: at most the machine's CPU count
// and never more than two, so the generator does not crowd out the daemon
// it measures.
var procs = min(2, runtime.NumCPU())

// conns is the number of query connections. An open loop must not wait
// for connections: with as few connections as CPUs, a request due while
// both are busy queues in the generator, and any slowdown of the machine
// is amplified into generator backlog rather than measured as latency.
const conns = 16

// metric is one named, united measurement of the JSON summary.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in order for the human-readable table. Metrics
// added with set also go into the JSON summary; those added with info are
// printed only.
type report struct {
	names   []string
	all     map[string]metric
	metrics map[string]metric // the JSON summary's
	notes   map[string]string
}

func newReport() *report {
	return &report{all: make(map[string]metric), metrics: make(map[string]metric), notes: make(map[string]string)}
}

func (r *report) set(name string, v float64, unit, note string) {
	r.info(name, v, unit, note)
	r.metrics[name] = r.all[name]
}

func (r *report) info(name string, v float64, unit, note string) {
	if _, ok := r.all[name]; !ok {
		r.names = append(r.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.all[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

func (r *report) print(title string) {
	fmt.Printf("\n%s\n", title)
	for _, n := range r.names {
		m := r.all[n]
		mark := " "
		if _, ok := r.metrics[n]; !ok {
			mark = "*"
		}
		fmt.Printf(" %s%-34s %14.6g %-7s %s\n", mark, n, m.Value, m.Unit, r.notes[n])
	}
	if len(r.metrics) < len(r.all) {
		fmt.Println("  (* printed only: too noisy on a shared machine to gate on, see servebench/README.md)")
	}
}

func main() {
	var (
		wname   = flag.String("workload", "", "workload: edge-p200, fleet-p20k or churn-durable")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 20, "measured seconds of load")
		traced  = flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
		bin     = flag.String("sbqad", "", "path of the sbqad binary to measure")
		workdir = flag.String("workdir", os.TempDir(), "scratch directory for state dirs and span dumps")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	w, err := findWorkload(*wname)
	if err == nil && *bin == "" {
		err = fmt.Errorf("-sbqad is required")
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()
	r := &run{w: w, seed: *seed, secs: float64(*seconds), bin: *bin, workdir: *workdir}
	var rep *report
	if *traced == 1 {
		rep, err = r.traced()
	} else {
		rep, err = r.endToEnd()
	}
	r.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	sum := summary{
		Correct:   len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   rep.metrics,
	}
	for _, v := range r.violations {
		fmt.Println("CHECK FAILED:", v)
	}
	out, _ := json.Marshal(sum)
	fmt.Println(string(out))
	if !sum.Correct {
		os.Exit(1)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// warn prints a line flagged for the reader's attention.
func warn(format string, args ...any) {
	fmt.Println("WARNING: " + strings.TrimSpace(fmt.Sprintf(format, args...)))
}
