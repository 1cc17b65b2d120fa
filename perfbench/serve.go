package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"matscale/internal/machine"
	"matscale/internal/server"
	"matscale/internal/sweep"
)

// poolTs are the startup costs of the serve pool specs; the pool is
// primed in set-up, so every request for one is a cache hit.
var poolTs = [...]float64{5, 6, 7, 8}

// serveSpec is the shape of every serve request: 12 cells, 2 of them
// rejected (GK needs a cube p), about 10 ms of simulation when cold.
// Cannon cells run on the events engine's systolic tier, Fox and GK on
// its fiber tier.
func serveSpec(ts float64) *sweep.Spec {
	return &sweep.Spec{
		Algorithms: []string{"cannon", "fox", "gk"},
		Machines:   []string{"custom"},
		Ts:         ts,
		Tw:         3,
		Ps:         []int{16, 64},
		Ns:         []int{32, 64},
		Seed:       1,
	}
}

// request is one entry of a serve client's mix.
type request struct {
	ts     float64
	pool   int  // index into poolTs; -1 for a cold spec
	sample bool // cold result re-run through sweep.Run after the window
}

// mixBlock is the mix's period: each block of mixBlock requests holds
// exactly one cold spec, so the hit/miss ratio is exact over whole
// blocks.
const mixBlock = 4

// mix is one client's seeded request sequence: in each block, three
// draws from the pool and one cold spec with a fresh Ts, in seeded
// order. One cold spec in eight is marked for re-running.
type mix struct {
	rng   *rand.Rand
	block []request
}

func newMix(seed uint64, client int) *mix {
	return &mix{rng: rand.New(rand.NewPCG(seed, uint64(client)+1))}
}

func (m *mix) next() request {
	if len(m.block) == 0 {
		for i := 0; i < mixBlock-1; i++ {
			m.block = append(m.block, request{ts: -1, pool: m.rng.IntN(len(poolTs))})
		}
		// A uniform Ts in [5, 8) repeats a pool value or an earlier
		// cold Ts with probability about 2^-50 per draw.
		ts := 5 + 3*m.rng.Float64()
		m.block = append(m.block, request{ts: ts, pool: -1, sample: m.rng.IntN(8) == 0})
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	r := m.block[0]
	m.block = m.block[1:]
	if r.pool >= 0 {
		r.ts = poolTs[r.pool]
	}
	return r
}

// serveHarness is an in-process sweep server on the events engine with
// one sweep worker per job, behind a loopback listener.
type serveHarness struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
}

func startServer() (*serveHarness, error) {
	srv, err := server.New(server.Config{Backend: machine.BackendEvents, SweepWorkers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	h := &serveHarness{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(h.served)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return h, nil
}

func (h *serveHarness) close() {
	_ = h.hs.Shutdown(context.Background()) // every request has completed by now
	<-h.served
	h.srv.Shutdown()
}

// client is one closed-loop HTTP caller holding a single connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// exchange is the client-side record of one job: the three HTTP calls'
// latencies, the SSE event count and the result bytes.
type exchange struct {
	submit, wait, result time.Duration
	events               int
	body                 []byte
}

// run submits spec, follows its event stream to the end and fetches its
// result, recording each call as a child span of parent.
func (c *client) run(spec *sweep.Spec, tr *tracer, parent, opID int64, lane int) (exchange, error) {
	var x exchange
	body, err := json.Marshal(server.SubmitRequest{Spec: *spec})
	if err != nil {
		return x, err
	}
	t0 := time.Now()
	id := tr.begin("http POST /v1/jobs", "", parent, opID, lane)
	var sub server.SubmitResponse
	err = c.call(http.MethodPost, "/v1/jobs", body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&sub)
	})
	tr.end(id)
	t1 := time.Now()
	x.submit = t1.Sub(t0)
	if err != nil {
		return x, err
	}
	id = tr.begin("http GET events", sub.ID, parent, opID, lane)
	last := ""
	err = c.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/events", nil, http.StatusOK, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				x.events++
				last = ev
			}
		}
		return sc.Err()
	})
	tr.end(id)
	t2 := time.Now()
	x.wait = t2.Sub(t1)
	if err == nil && last != "done" {
		err = fmt.Errorf("job %s: event stream ended with %q, want done", sub.ID, last)
	}
	if err != nil {
		return x, err
	}
	id = tr.begin("http GET result", sub.ID, parent, opID, lane)
	err = c.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil, http.StatusOK, func(r io.Reader) error {
		b, err := io.ReadAll(r)
		x.body = b
		return err
	})
	tr.end(id)
	x.result = time.Since(t2)
	return x, err
}

// call performs one request and hands the body of a want-status
// response to read.
func (c *client) call(method, path string, body []byte, want int, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(msg))
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return err
}

// checkResult verifies a served result: pool results against their
// golden digests, cold ones for shape (the seed-chosen sample is
// re-run after the window).
func checkResult(r request, body []byte) error {
	if r.pool >= 0 {
		return checkDigest(fmt.Sprintf("serve pool result ts=%g", r.ts), body, goldenPool[r.pool])
	}
	var res sweep.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("serve cold result ts=%g: %w", r.ts, err)
	}
	if len(res.Cells) != 12 || res.Ran != 10 || res.Spec.Ts != r.ts {
		return fmt.Errorf("serve cold result ts=%g: %d cells, %d ran, spec ts %g; want 12, 10, %g",
			r.ts, len(res.Cells), res.Ran, res.Spec.Ts, r.ts)
	}
	return nil
}

// directJSON runs spec through sweep.Run as a server job would, and
// returns the result as the server serialises it.
func directJSON(spec *sweep.Spec, cache sweep.CellCache) ([]byte, error) {
	res, err := sweep.Run(spec, sweep.Options{Workers: 1, Backend: machine.BackendEvents, Cache: cache})
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	err = res.WriteJSON(&b)
	return b.Bytes(), err
}

// serve drives the sweep server over HTTP with two closed-loop clients,
// each posting a job, following /events to done and fetching the
// result. Three requests in four hit the primed pool; the fourth is a
// cold spec on the des fiber and systolic tiers.
type serve struct {
	h     *serveHarness
	conns [2]*client
	mixes [2]*mix

	mu     sync.Mutex
	sample []coldResult
}

// coldResult is a served cold result kept for the post-window re-run.
type coldResult struct {
	ts   float64
	body []byte
}

// maxSample bounds the cold results re-run after the window.
const maxSample = 32

func (s *serve) setup(seed uint64) error {
	for i := range s.mixes {
		s.mixes[i] = newMix(seed, i)
	}
	s.sample = nil
	return s.start()
}

// restart replaces the server and the clients' connections with fresh
// ones; the request mixes carry on where they stopped.
func (s *serve) restart() error {
	s.close()
	return s.start()
}

// start brings up a server, primes its pool and warms up each client
// with one hit, which also opens its connection.
func (s *serve) start() error {
	h, err := startServer()
	if err != nil {
		return err
	}
	s.h = h
	for i := range s.conns {
		s.conns[i] = newClient(h.base)
	}
	if err := primePool(s.conns[0]); err != nil {
		return err
	}
	for i, c := range s.conns {
		x, err := c.run(serveSpec(poolTs[i]), nil, 0, 0, 0)
		if err == nil {
			err = checkResult(request{ts: poolTs[i], pool: i}, x.body)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// primePool runs every pool spec once through the server, checks each
// result against its golden digest and against a direct sweep.Run of
// the same spec.
func primePool(c *client) error {
	for i, ts := range poolTs {
		spec := serveSpec(ts)
		x, err := c.run(spec, nil, 0, 0, 0)
		if err != nil {
			return err
		}
		if err := checkResult(request{ts: ts, pool: i}, x.body); err != nil {
			return err
		}
		want, err := directJSON(spec, nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(x.body, want) {
			return fmt.Errorf("serve pool ts=%g: served result differs from sweep.Run", ts)
		}
	}
	return nil
}

func (s *serve) clients() int { return len(s.conns) }

func (s *serve) stride() int { return mixBlock }

func (s *serve) op(c int, tr *tracer, opID int64) (time.Duration, error) {
	r := s.mixes[c].next()
	kind := "hit"
	if r.pool < 0 {
		kind = "miss"
	}
	root := tr.begin("op serve "+kind, fmt.Sprintf("ts=%g", r.ts), 0, opID, c+1)
	t0 := time.Now()
	x, err := s.conns[c].run(serveSpec(r.ts), tr, root, opID, c+1)
	lat := time.Since(t0)
	tr.end(root)
	if err != nil {
		return lat, err
	}
	if err := checkResult(r, x.body); err != nil {
		return lat, err
	}
	if r.sample {
		s.mu.Lock()
		if len(s.sample) < maxSample {
			s.sample = append(s.sample, coldResult{ts: r.ts, body: x.body})
		}
		s.mu.Unlock()
	}
	return lat, nil
}

// verify re-runs the sampled cold specs through sweep.Run and compares
// bytes with what the server returned.
func (s *serve) verify() error {
	var errs []error
	for _, cr := range s.sample {
		want, err := directJSON(serveSpec(cr.ts), nil)
		if err == nil && !bytes.Equal(cr.body, want) {
			err = fmt.Errorf("serve cold ts=%g: served result differs from sweep.Run", cr.ts)
		}
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func (s *serve) close() {
	for i, c := range s.conns {
		if c != nil {
			c.close()
			s.conns[i] = nil
		}
	}
	if s.h != nil {
		s.h.close()
		s.h = nil
	}
}
