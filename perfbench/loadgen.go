package main

// The benchmark's own load generator. The open loop sends request i when it
// is due, at start + i/rate, whether or not earlier requests have been
// answered, and times each request from that due time, so a stall also
// charges the requests queued behind it. It uses at most one connection
// per CPU, from this one process.

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// outcome is what happened to one request.
type outcome struct {
	req    *request
	due    time.Time
	sent   time.Time
	done   time.Time
	status int
	err    error
	// body is kept only for sampled requests, for the correctness check.
	body []byte
}

// ok reports whether the request got a 2xx answer.
func (o *outcome) ok() bool { return o.err == nil && o.status/100 == 2 }

// latency is the time from due to answered; a failed request never meets
// any latency limit.
func (o *outcome) latency() time.Duration {
	if !o.ok() {
		return time.Duration(1<<63 - 1)
	}
	return o.done.Sub(o.due)
}

// loadClient sends requests to one daemon over a bounded connection pool.
type loadClient struct {
	http *http.Client
	base string
}

func newLoadClient(base string, conns int) *loadClient {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &loadClient{http: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

// close drops the pool's idle connections.
func (c *loadClient) close() { c.http.CloseIdleConnections() }

// send posts r and fills o's status, body (when keep is set) and error.
func (c *loadClient) send(o *outcome, keep bool) {
	resp, err := c.http.Post(c.base+o.req.path, "application/json", bytes.NewReader(o.req.body))
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	if keep {
		o.body, o.err = io.ReadAll(resp.Body)
	} else {
		_, o.err = io.Copy(io.Discard, resp.Body)
	}
}

// preciseSleep sleeps d on the calling OS thread with a nanosleep system
// call. The Go runtime's timers wake no sooner than about a millisecond
// after a sub-millisecond deadline on Linux, which would add that much to
// every due-time latency; nanosleep with the timer slack minimised wakes
// within tens of microseconds.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// openLoop sends n requests at rate per second, request i built by reqAt(i)
// and due at start + i/rate, each on its own goroutine so a slow answer
// never delays a later send. Requests beyond the pool's connections wait in
// the client, and that wait counts in their latency. keep selects the
// requests whose bodies are kept. With a tracer each request records an
// "http.request" span from its due time, whose child "net.roundtrip" starts
// when it was actually sent.
func (c *loadClient) openLoop(n int, rate float64, reqAt func(int) *request, keep func(int) bool, tr *tracer) []outcome {
	out := make([]outcome, n)
	for i := range out {
		out[i].req = reqAt(i)
	}
	var wg sync.WaitGroup
	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		// The dispatcher owns its thread for the precise sleeps; the
		// thread ends with the goroutine, taking its timer slack with it.
		// A kernel that refuses the slack only makes the sleeps coarser,
		// which loadgen.lag_p99_ms reports.
		runtime.LockOSThread()
		const prSetTimerslack = 29
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
		start := time.Now().Add(time.Millisecond)
		interval := float64(time.Second) / rate
		for i := range out {
			due := start.Add(time.Duration(float64(i) * interval))
			if d := time.Until(due); d > 0 {
				preciseSleep(d)
			}
			wg.Add(1)
			go func(o *outcome, keep bool) {
				defer wg.Done()
				o.due = due
				o.sent = time.Now()
				c.send(o, keep)
				o.done = time.Now()
				if tr != nil {
					root := tr.record("http.request", 0, o.due, o.done)
					tr.record("net.roundtrip", root, o.sent, o.done)
				}
			}(&out[i], keep(i))
		}
	}()
	<-dispatched
	wg.Wait()
	return out
}
