package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// query share qid; parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	QID    int64  `json:"qid"`
}

// spanLog keeps spans in memory; a nil *spanLog records nothing, so the
// untraced path pays one nil check per call site.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// epoch is the zero of every span timestamp in a run.
var epoch = time.Now()

// now is nanoseconds since epoch on the monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// add records a finished span and returns its index (for children).
func (l *spanLog) add(name string, start, end int64, parent int, qid int64) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: start, End: end, Parent: parent, QID: qid})
	return len(l.spans) - 1
}

// durations returns every duration recorded under name, in µs.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, per span name, each span's duration minus the part of
// its interval that its children cover (µs).
func (l *spanLog) selfTimes() map[string][]float64 {
	kids := make(map[int][]int)
	for i, s := range l.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[string][]float64)
	for i, s := range l.spans {
		covered := int64(0)
		if ks := kids[i]; len(ks) > 0 {
			iv := make([][2]int64, 0, len(ks))
			for _, k := range ks {
				a, b := max(l.spans[k].Start, s.Start), min(l.spans[k].End, s.End)
				if b > a {
					iv = append(iv, [2]int64{a, b})
				}
			}
			sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
			var cs, ce int64 = -1, -1
			for _, v := range iv {
				if v[0] > ce {
					covered += ce - cs
					cs, ce = v[0], v[1]
				} else if v[1] > ce {
					ce = v[1]
				}
			}
			covered += ce - cs
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e3)
	}
	return out
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile is the q-quantile of xs by linear interpolation (xs is sorted in
// place); NaN-free: an empty slice gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
