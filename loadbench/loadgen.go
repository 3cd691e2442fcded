package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outcome is one request's record from the open-loop generator.
type outcome struct {
	req    *request
	phase  int
	due    time.Time // when the schedule wanted it sent
	sent   time.Time // when a connection took it
	done   time.Time // when its response was read
	status int
	body   []byte
	err    error
}

// latency is the request's time from when it was due to its response:
// a stall in the generator or the server delays every later request,
// and that wait is part of what the user sees.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// service is the request's time from its send to its full answer.
func (o *outcome) service() time.Duration { return o.done.Sub(o.sent) }

// late is how long after its due time a connection took the request.
func (o *outcome) late() time.Duration { return o.sent.Sub(o.due) }

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// requestTimeout fails a request that gets no full answer in time, so a
// wedged server ends the run with failures instead of hanging it.
const requestTimeout = 30 * time.Second

// loadgen drives one snapd open loop over a fixed set of connections:
// one worker per connection, each sending one request at a time.
type loadgen struct {
	base    string
	clients []*http.Client
}

func newLoadgen(addr string, conns int) *loadgen {
	g := &loadgen{base: "http://" + addr}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}})
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// send posts one assembly text and reads the whole answer through the
// connection's reusable buffer.
func (g *loadgen) send(ctx context.Context, c *http.Client, buf *bytes.Buffer, path, text string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+path, strings.NewReader(text))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read %s answer: %w", path, err)
	}
	// The answer is kept until the oracle runs: keep it at its size.
	return resp.StatusCode, bytes.Clone(buf.Bytes()), nil
}

// run plays one phase open loop. A dispatcher hands each request to a
// free connection at its due time; when every connection is busy the
// request waits, and that wait counts in its latency. A create's probe
// read follows its acknowledgement on the same connection. It returns
// the scheduled outcomes in schedule order, then the probes.
func (g *loadgen) run(ctx context.Context, phaseIdx int, reqs []request) []outcome {
	out := make([]outcome, len(reqs))
	var (
		mu     sync.Mutex
		probes []outcome
	)
	work := make(chan int)
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range work {
				o := &out[i]
				o.sent = time.Now()
				o.status, o.body, o.err = g.send(ctx, c, &buf, o.req.path(), o.req.text)
				o.done = time.Now()
				if o.req.probe == "" || !o.ok() {
					continue
				}
				p := outcome{req: &request{class: classProbe, text: o.req.probe}, phase: phaseIdx}
				p.due = time.Now()
				p.sent = p.due
				p.status, p.body, p.err = g.send(ctx, c, &buf, "/v1/query", p.req.text)
				p.done = time.Now()
				mu.Lock()
				probes = append(probes, p)
				mu.Unlock()
			}
		}(c)
	}
	// The dispatcher keeps its OS thread, so waitUntil's nanosleeps
	// pace it directly.
	runtime.LockOSThread()
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].due)
		out[i] = outcome{req: &reqs[i], phase: phaseIdx, due: due}
		waitUntil(due)
		work <- i
	}
	runtime.UnlockOSThread()
	close(work)
	wg.Wait()
	return append(out, probes...)
}

// waitUntil blocks the calling thread until t. The Go runtime's timers
// fire from a poller with millisecond granularity when the process is
// idle, which would make every request up to a millisecond late;
// nanosleep in short final steps keeps the schedule within tens of
// microseconds without spinning.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		switch {
		case d > 400*time.Microsecond:
			d -= 300 * time.Microsecond
		case d > 50*time.Microsecond:
			d = 50 * time.Microsecond
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up just loops
	}
}
