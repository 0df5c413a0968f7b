package main

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps a goroutine until a due time with microsecond precision.
//
// time.Sleep is not precise enough for an open loop: the runtime parks
// timers in the netpoller with millisecond resolution, so a sleep can end
// up to a millisecond late, which is more than a request's round trip.
// Blocking the thread in nanosleep is precise but holds a P for the whole
// sleep, which starves every other goroutine on a two-CPU generator. A
// timerfd is both: the netpoller wakes the goroutine the moment the timer
// fires, and the goroutine holds no P while it waits.
type pacer struct {
	fd  int
	f   *os.File
	buf [8]byte
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

// itimerspec mirrors struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, errno
	}
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

func (p *pacer) close() { p.f.Close() }

// spinWindow is how close to its due time a sender stops sleeping and
// yields instead, absorbing the wake-up latency of the netpoller.
const spinWindow = 30 * time.Microsecond

// waitUntil blocks until the epoch-relative time due.
func (p *pacer) waitUntil(due int64) {
	for {
		d := time.Duration(due - now())
		if d <= 0 {
			return
		}
		if d <= spinWindow {
			runtime.Gosched()
			continue
		}
		spec := itimerspec{value: syscall.NsecToTimespec(int64(d - spinWindow))}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			time.Sleep(d)
			continue
		}
		p.f.Read(p.buf[:])
	}
}

// openLoop offers qs at rate for dur, open loop: query i is due at
// start + qs[i].at/rate whatever the state of earlier queries. conns
// senders take queries in order, wait until each is due and call
// send(i, due); a query due while every sender is busy goes out late, and
// its lateness counts in its latency. Queries that come due but cannot be
// sent before the window closes are counted as backlog, not sent.
func openLoop(qs []query, rate float64, dur time.Duration, send func(i int, due int64)) (backlog int, err error) {
	pacers := make([]*pacer, conns)
	for k := range pacers {
		if pacers[k], err = newPacer(); err != nil {
			for _, p := range pacers[:k] {
				p.close()
			}
			return 0, err
		}
	}
	start := now() + int64(time.Millisecond)
	end := start + int64(dur)
	var next, late atomic.Int64
	var wg sync.WaitGroup
	for _, pc := range pacers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pc.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				due := start + int64(qs[i].at/rate*1e9)
				if due >= end {
					return
				}
				pc.waitUntil(due)
				if now() > end {
					late.Add(1)
					continue
				}
				send(i, due)
			}
		}()
	}
	wg.Wait()
	return int(late.Load()), nil
}
