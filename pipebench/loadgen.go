package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is the client's record of one request, times relative to the
// phase start.
type sample struct {
	kind            kind
	due, sent, done time.Duration
	ok              bool
	skipped         bool  // never sent: its phase was abandoned
	req             int64 // request id (traced runs)
}

func (s *sample) latency() time.Duration { return s.done - s.due }
func (s *sample) lag() time.Duration     { return s.sent - s.due }

// generations tracks which label generation can be live: merged counts
// artifact merges committed, acked counts reloads acknowledged.
type generations struct{ merged, acked atomic.Int64 }

// loadgen sends queries to the daemon from senders goroutines, each with
// its own client and keep-alive connection.
type loadgen struct {
	srv     *server
	clients []*http.Client
	in      *serveInput
	gens    *generations
	tr      *tracer
	nextReq *atomic.Int64

	// bad counts queries that failed or were answered wrong, as opposed to
	// shed under load; any one of them fails the run.
	bad      atomic.Int64
	mu       sync.Mutex
	failures []string
}

func newLoadgen(srv *server, in *serveInput, tr *tracer, senders int, nextReq *atomic.Int64) *loadgen {
	g := &loadgen{srv: srv, in: in, gens: &generations{}, tr: tr, nextReq: nextReq}
	for range senders {
		// Each sender has its own transport, so its connection is its own.
		g.clients = append(g.clients, &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		})
	}
	return g
}

// close closes every sender's connection.
func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// run sends reqs open-loop at rate per second and returns one sample per
// request: request i is due at i/rate after the start whatever happened
// before, and is timed from when it was due. A dispatcher releases each
// request when due to whichever sender is free; a request due while every
// sender is busy waits, and the wait counts in its latency. With abort > 0
// the phase is abandoned once a request is sent more than abort late; the
// requests not yet sent are marked skipped.
func (g *loadgen) run(reqs []request, rate float64, abort time.Duration) []sample {
	samples := make([]sample, len(reqs))
	for i := range samples {
		samples[i].kind = reqs[i].kind
		samples[i].due = time.Duration(float64(i) / rate * float64(time.Second))
	}
	work := make(chan int, len(reqs)) // sized to the number of sends
	var abandoned atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				s := &samples[i]
				if abandoned.Load() {
					s.skipped = true
					continue
				}
				g.send(c, &reqs[i], s, start)
				if abort > 0 && s.lag() > abort {
					abandoned.Store(true)
				}
			}
		}()
	}
	for i := range reqs {
		if abandoned.Load() {
			samples[i].skipped = true
			continue
		}
		sleepUntil(start.Add(samples[i].due))
		work <- i
		// Let the woken sender run before this goroutine blocks the
		// thread, and its processor, in the next sleep.
		runtime.Gosched()
	}
	close(work)
	wg.Wait()
	return samples
}

// closedLoop sends paths one after another from every sender and returns
// how many failed.
func (g *loadgen) closedLoop(paths []string) int {
	samples := make([]sample, len(paths))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(paths) {
					return
				}
				g.send(c, &request{path: paths[i], q: -1}, &samples[i], start)
			}
		}()
	}
	wg.Wait()
	failed := 0
	for _, s := range samples {
		if !s.ok {
			failed++
		}
	}
	return failed
}

// sleepUntil blocks the calling thread in the kernel until t. Go's own
// timers wake up to a millisecond late on hosts where the runtime waits
// for them in millisecond steps, which would swamp the latencies an
// open-loop generator times from due.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR (runtime preemption signals) just loops
	}
}

// send issues one request on c and checks its answer. Every count drawn
// from the pool is compared with the oracle.
func (g *loadgen) send(c *http.Client, r *request, s *sample, start time.Time) {
	s.sent = time.Since(start)
	acked := g.gens.acked.Load()
	hreq, err := http.NewRequest(http.MethodGet, g.srv.base+r.path, nil)
	if err != nil {
		g.fail(fmt.Sprintf("%s: %v", r.path, err))
		return
	}
	var span int
	if g.tr != nil {
		s.req = g.nextReq.Add(1)
		span = g.tr.begin("loadgen.request", 0, s.req)
		hreq.Header.Set("X-Span", strconv.Itoa(span))
		hreq.Header.Set("X-Request-Id", strconv.FormatInt(s.req, 10))
	}
	status, body, err := get(c, hreq)
	g.tr.end(span)
	s.done = time.Since(start)
	switch {
	case err != nil:
		g.fail(fmt.Sprintf("%s: %v", r.path, err))
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		// Shed by admission control: not answered, but not wrong.
	case status != http.StatusOK:
		g.fail(fmt.Sprintf("%s: status %d: %s", r.path, status, bytes.TrimSpace(body)))
	case r.q >= 0:
		s.ok = g.checkCount(r, body, acked)
	default:
		s.ok = true
	}
}

// get sends req and reads the whole answer.
func get(c *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// checkCount compares a /v1/count answer with the oracle count of every
// generation that could have served it: from the one acknowledged when
// the request was sent to the last one merged when it completed.
func (g *loadgen) checkCount(r *request, body []byte, acked int64) bool {
	var res struct{ Count int }
	if err := json.Unmarshal(body, &res); err != nil {
		g.fail(fmt.Sprintf("%s: %v", r.path, err))
		return false
	}
	q := &g.in.counts[r.q]
	merged := g.gens.merged.Load()
	for gen := acked; gen <= merged; gen++ {
		if res.Count == q.oracle(int(gen)) {
			return true
		}
	}
	g.fail(fmt.Sprintf("%s: count %d, oracle %d (generations %d..%d)", r.path, res.Count, q.oracle(int(acked)), acked, merged))
	return false
}

// fail counts a query that failed or was answered wrong and keeps the
// first few messages.
func (g *loadgen) fail(msg string) {
	g.bad.Add(1)
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.failures) < 5 {
		g.failures = append(g.failures, msg)
	}
}
