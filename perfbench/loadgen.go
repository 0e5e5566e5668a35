package main

// The load generator: lanes of sequential requests over a fixed set of
// loopback connections, open or closed loop, and the per-phase
// summaries of what they saw.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"transer/internal/serve"
)

// outcome is what happened to one request.
type outcome struct {
	sent, done time.Duration
	status     int
	body       []byte
	err        error
}

// lanes is the number of client connections and sending goroutines.
func lanes() int { return min(2, runtime.NumCPU()) }

var errNotSent = errors.New("due but not sent before the phase ended")

// drive sends reqs over lanes() connections, each lane sending its
// requests one at a time in order. Open loop, a lane waits for each
// request's due time; one due more than grace before the lane reaches
// it is never sent and fails. Closed loop, a lane sends as soon as the
// previous response arrived.
func (c *serveClient) drive(reqs []*request, open bool, grace time.Duration) []outcome {
	out := make([]outcome, len(reqs))
	byLane := make([][]int, lanes())
	for i, rq := range reqs {
		lane := rq.lane % len(byLane)
		byLane[lane] = append(byLane[lane], i)
	}
	start := time.Now()
	done := make(chan struct{})
	for _, idx := range byLane {
		go func(idx []int) {
			defer func() { done <- struct{}{} }()
			for _, i := range idx {
				rq := reqs[i]
				if open {
					if wait := rq.due - time.Since(start); wait > 0 {
						time.Sleep(wait)
					}
					if time.Since(start)-rq.due > grace {
						out[i] = outcome{err: errNotSent}
						continue
					}
				}
				out[i].sent = time.Since(start)
				out[i].status, out[i].body, out[i].err = c.post(routePaths[rq.route], rq.body)
				out[i].done = time.Since(start)
			}
		}(idx)
	}
	for range byLane {
		<-done
	}
	return out
}

func (c *serveClient) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// phaseStats summarises one driven phase.
type phaseStats struct {
	routeMS   [numRoutes][]float64
	routeFail [numRoutes]int
	readMS    []float64
	ok        int
	lateMS    []float64
	serviceMS float64 // summed send-to-response time
	failed    int
}

func summarise(reqs []*request, outs []outcome, open bool) phaseStats {
	var ps phaseStats
	for i, rq := range reqs {
		o := outs[i]
		if o.err != nil || o.status != http.StatusOK {
			ps.failed++
			ps.routeFail[rq.route]++
			continue
		}
		// Open loop, latency runs from the due time; closed, from sending.
		start := o.sent
		if open {
			start = rq.due
		}
		d := ms(o.done - start)
		ps.routeMS[rq.route] = append(ps.routeMS[rq.route], d)
		ps.ok++
		if rq.route != routeIngest {
			ps.readMS = append(ps.readMS, d)
		}
		if open {
			ps.lateMS = append(ps.lateMS, ms(o.sent-rq.due))
		}
		ps.serviceMS += ms(o.done - o.sent)
	}
	return ps
}

// serveClient is the benchmark's side of the loopback connection.
type serveClient struct {
	http *http.Client
	base string
}

// startServer serves h on a loopback port until stop is called; stop
// returns once the server goroutine has exited.
func startServer(h http.Handler) (*serveClient, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	tr := &http.Transport{MaxConnsPerHost: lanes(), MaxIdleConnsPerHost: lanes(), DisableCompression: true}
	c := &serveClient{http: &http.Client{Transport: tr, Timeout: requestTimeout}, base: "http://" + ln.Addr().String()}
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		tr.CloseIdleConnections()
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	return c, stop, nil
}

// shedTotal reads serve.shed_total from the server's /metrics.
func (c *serveClient) shedTotal() (int64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var m serve.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m.Metrics.Counters["serve.shed_total"], nil
}
