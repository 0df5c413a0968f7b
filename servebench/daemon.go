package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// running holds every daemon started and not yet stopped, so a signal to
// the benchmark stops them too.
var running sync.Map // *daemon → struct{}

// stopAll stops every running daemon (on SIGINT/SIGTERM).
func stopAll() {
	running.Range(func(k, _ any) bool {
		k.(*daemon).stop()
		return true
	})
}

// daemon is one running sbqad process on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	once   sync.Once
	exited chan struct{} // closed when the process has exited
	err    error         // its exit status, once exited
}

// startDaemon launches bin with the workload's flags plus extra and waits
// for its listen line. stateDir is used only by durable workloads.
func startDaemon(bin string, w *workload, stateDir string, extra ...string) (*daemon, error) {
	// -debug-pprof mounts /debug/pprof, whose heap profile carries the
	// runtime's exact allocation counters; it adds nothing to the query path.
	// Every other flag keeps its default.
	args := []string{"-addr", "127.0.0.1:0", "-shards", "2", "-debug-pprof"}
	if w.qos {
		args = append(args, "-qos")
	}
	if w.durable {
		args = append(args, "-state-dir", stateDir)
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	running.Store(d, struct{}{})
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "sbqad: listening on "); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, out)
	}()
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.exited:
		running.Delete(d)
		return nil, fmt.Errorf("sbqad exited before listening: %v", d.err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("sbqad did not listen within 30s")
	}
}

// stop shuts the daemon down gracefully and waits for it, killing it if
// the drain takes too long.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(20 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
		running.Delete(d)
	})
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// newClient is an HTTP client holding at most conns connections to the
// daemon.
func newClient(conns int) *http.Client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// call sends one JSON request and decodes a JSON answer into out (when
// non-nil). It returns the status code.
func call(c *http.Client, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %v", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// waitReady polls /v1/readyz until it answers 200.
func (d *daemon) waitReady(c *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if code, err := call(c, "GET", d.base+"/v1/readyz", nil, nil); err == nil && code == 200 {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("sbqad not ready within 60s")
}

// promSample is one exposition line: name, labels, value.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one read of /v1/metrics.
type scrape []promSample

func (d *daemon) scrape(c *http.Client) (scrape, error) {
	resp, err := c.Get(d.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out scrape
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{name: line[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			s.labels = parseLabels(s.name[i+1 : len(s.name)-1])
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseLabels(s string) map[string]string {
	m := map[string]string{}
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			break
		}
		end := strings.IndexByte(s[eq+2:], '"')
		if end < 0 {
			break
		}
		m[s[:eq]] = s[eq+2 : eq+2+end]
		s = strings.TrimPrefix(s[eq+2+end+1:], ",")
	}
	return m
}

// sum adds every sample of name whose labels include the given pairs.
func (s scrape) sum(name string, kv ...string) float64 {
	t := 0.0
next:
	for _, p := range s {
		if p.name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if p.labels[kv[i]] != kv[i+1] {
				continue next
			}
		}
		t += p.value
	}
	return t
}

// max is the largest sample of name.
func (s scrape) max(name string) float64 {
	m := 0.0
	for _, p := range s {
		if p.name == name && p.value > m {
			m = p.value
		}
	}
	return m
}

// allocs reads the daemon's cumulative heap allocation count and bytes
// from the runtime.MemStats block of its text heap profile.
func (d *daemon) allocs(c *http.Client) (mallocs, bytes float64, err error) {
	resp, err := c.Get(d.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# Mallocs = "); ok {
			mallocs, err = strconv.ParseFloat(v, 64)
			found++
		} else if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			bytes, err = strconv.ParseFloat(v, 64)
			found++
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("no MemStats block in the heap profile (status %d)", resp.StatusCode)
	}
	return mallocs, bytes, sc.Err()
}

// mean averages every sample of name.
func (s scrape) mean(name string) float64 {
	t, n := 0.0, 0
	for _, p := range s {
		if p.name == name {
			t += p.value
			n++
		}
	}
	return t / float64(max(1, n))
}

// clkTck is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; 100 on
// every mainstream Linux build.
const clkTck = 100

// procCPU returns the process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// procHWM returns the process's peak resident set (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTicks reads the machine-wide CPU counters of /proc/stat: the ticks
// the hypervisor stole from this machine, and all ticks.
func cpuTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
