package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/fleet"
	"schedinspector/internal/online"
	"schedinspector/internal/serve"
)

// The serve and serve_online workloads: serve.NewHandler(fixture) behind a
// real net/http.Server on loopback TCP, driven by a closed loop of nproc
// keep-alive clients that each send the next harvested body as soon as the
// previous verdict arrives. serve_online additionally runs the online
// loop's RunCycle back to back in the same process.

const (
	// warmupRequests are sent during every set-up, before timing. They
	// also fill the flight ring past the online loop's MinWindow.
	warmupRequests = 2048
	// checkEvery: every checkEvery-th verdict of a client is compared bit
	// for bit with a reference clone's Inspector.RejectProb.
	checkEvery = 32
	// traceHeader carries the client's span ID to the handler wrapper.
	traceHeader = "X-Perfbench-Span"
)

// clientCount is the number of closed-loop clients, one per CPU, so client
// goroutines and connections never outnumber the cores.
func clientCount() int { return runtime.NumCPU() }

// server is one running handler and its loopback listener.
type server struct {
	h      *serve.Handler
	srv    *http.Server
	url    string
	served chan error
	tracer atomic.Pointer[tracer] // traced runs only: wraps ServeHTTP in a span
	loop   *online.Loop           // serve_online only
}

func startServer(fix *core.Inspector, traced, withLoop bool, seed int64) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{h: serve.NewHandler(fix), served: make(chan error, 1)}
	s.url = "http://" + ln.Addr().String() + "/v1/inspect"
	var handler http.Handler = s.h
	if traced {
		handler = http.HandlerFunc(s.traceServeHTTP)
	}
	s.srv = &http.Server{Handler: handler}
	go func() { s.served <- s.srv.Serve(ln) }()
	if withLoop {
		s.loop, err = online.New(online.Config{Source: s.h.TraceRing(), Serving: s.h, Registry: s.h.Registry(), Seed: seed})
		if err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// traceServeHTTP wraps Handler.ServeHTTP in a serve.handler span whose
// parent is the client's round-trip span.
func (s *server) traceServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := s.tracer.Load()
	if t == nil {
		s.h.ServeHTTP(w, r)
		return
	}
	id, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
	sp := t.child("serve.handler", span{ID: id, Trace: id})
	s.h.ServeHTTP(w, r)
	t.end(sp)
}

// stop shuts the HTTP server down, waits for it, then closes the handler.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a timeout leaves connections to Close below
	_ = s.srv.Close()
	<-s.served
	s.h.Close()
}

// client is one closed-loop caller with one keep-alive connection.
type client struct {
	hc   *http.Client
	s    *server
	hv   *harvest
	next int                       // next body to send
	refs map[int64]*core.Inspector // reference clones by serving generation

	samples []sample // timed round trips of the current phase
	done    int      // verdicts received
	rejects int
}

func newClients(s *server, hv *harvest) []*client {
	n := clientCount()
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{
			hc: &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
			}},
			s: s, hv: hv,
			next: i * len(hv.bodies) / n,
			refs: make(map[int64]*core.Inspector),
		}
	}
	return cs
}

// sample is one timed round trip: when it completed, on the speed meter's
// clock, and how long it took, in microseconds.
type sample struct{ at, us float64 }

// do sends the next body and checks the verdict. A transport error, a
// non-200, an undecodable body or a failed reference check fails it. The
// round trip is recorded on m's clock unless m is nil.
func (c *client) do(r *report, t *tracer, m *speedMeter) {
	k := c.next % len(c.hv.bodies)
	c.next++
	check := c.done%checkEvery == 0
	var gen int64
	if check {
		_, gen = c.s.h.Current()
	}
	sp := t.root("net.roundtrip")
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.s.url, bytes.NewReader(c.hv.bodies[k]))
	if err != nil {
		r.fail("build request: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if t != nil {
		req.Header.Set(traceHeader, strconv.FormatUint(sp.ID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		r.fail("POST /v1/inspect: %v", err)
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(t0)
	t.end(sp)
	if err != nil {
		r.fail("read response: %v", err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		r.fail("POST /v1/inspect: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return
	}
	var out serve.InspectResponse
	if err := json.Unmarshal(data, &out); err != nil {
		r.fail("decode verdict %q: %v", data, err)
		return
	}
	if !(out.RejectProb >= 0 && out.RejectProb <= 1) {
		r.fail("reject_prob %v out of [0, 1]", out.RejectProb)
		return
	}
	if check && !c.matchesReference(k, gen, out.RejectProb) {
		r.fail("body %d: reject_prob %v differs from the reference clone", k, out.RejectProb)
		return
	}
	r.ok()
	c.done++
	if out.Reject {
		c.rejects++
	}
	if m != nil {
		c.samples = append(c.samples, sample{at: m.now(), us: float64(elapsed) / 1e3})
	}
}

// matchesReference compares a served reject_prob with a clone of the model
// that served it. A verdict whose generation changed mid-request cannot be
// attributed to one model and passes unchecked.
func (c *client) matchesReference(k int, gen int64, got float64) bool {
	insp, now := c.s.h.Current()
	if now != gen {
		return true
	}
	ref := c.refs[gen]
	if ref == nil {
		ref = insp.Clone(nil)
		c.refs[gen] = ref
	}
	want := ref.RejectProb(stateFrom(&c.hv.reqs[k]))
	return math.Float64bits(want) == math.Float64bits(got)
}

// load runs every client until the deadline or, with count > 0, until
// each has sent count requests. Round trips are recorded on m's clock
// unless m is nil.
func load(cs []*client, r *report, t *tracer, m *speedMeter, seconds float64, count int) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; count <= 0 || i < count; i++ {
				if stop.Load() {
					return
				}
				c.do(r, t, m)
			}
		}(c)
	}
	if count <= 0 {
		time.Sleep(time.Duration(seconds * float64(time.Second)))
		stop.Store(true)
	}
	wg.Wait()
}

// collect pools and resets the clients' recorded round trips.
func collect(cs []*client) []sample {
	var all []sample
	for _, c := range cs {
		all = append(all, c.samples...)
		c.samples = c.samples[:0]
	}
	return all
}

// latencies returns the round-trip times of ss in microseconds.
func latencies(ss []sample) []float64 {
	us := make([]float64, len(ss))
	for i, s := range ss {
		us[i] = s.us
	}
	return us
}

// windowed splits the phase [start, end] of m's clock into one-second
// windows. Each becomes one unit, whose latency is its p50 round trip; it
// also returns each window's p90.
func windowed(m *speedMeter, ss []sample, start, end float64) (u units, p90s []float64) {
	n := max(int(end-start), 1)
	width := (end - start) / float64(n)
	buckets := make([][]float64, n)
	for _, s := range ss {
		i := min(max(int((s.at-start)/width), 0), n-1)
		buckets[i] = append(buckets[i], s.us)
	}
	for i, b := range buckets {
		if len(b) == 0 {
			continue
		}
		ws := start + float64(i)*width
		u.add(m, ws, ws+width, len(b), quantile(b, 0.5)/1e6)
		p90s = append(p90s, quantile(b, 0.9))
	}
	return u, p90s
}

// serveSetup is everything a serve run builds before timing.
type serveSetup struct {
	hv      *harvest
	fix     *core.Inspector
	s       *server
	clients []*client
}

func (e *serveSetup) stop() {
	for _, c := range e.clients {
		c.hc.CloseIdleConnections()
	}
	e.s.stop()
}

// cycleStats collects the online loop's cycles during load. Only the cycle
// goroutine writes it, and it is read after that goroutine has ended.
type cycleStats struct {
	retrain []float64 // seconds of cycles that retrained
	other   int       // probation, collecting or failed cycles
}

// runCycles runs RunCycle back to back until stop is set.
func runCycles(loop *online.Loop, r *report, cyc *cycleStats, stop *atomic.Bool, t *tracer) {
	for !stop.Load() {
		before := loop.Status()
		sp := t.root("online.cycle")
		t0 := time.Now()
		loop.RunCycle(context.Background())
		d := time.Since(t0).Seconds()
		t.end(sp)
		after := loop.Status()
		if after.Retrains > before.Retrains {
			cyc.retrain = append(cyc.retrain, d)
		} else {
			cyc.other++
		}
		r.check(after.LastError == "", "online cycle %d: %s", after.Cycles, after.LastError)
	}
}

// measure runs one timed load phase, with the online loop cycling
// alongside when the server has one. It returns the phase's start and end
// on m's clock and the verdicts completed.
func measure(e *serveSetup, r *report, m *speedMeter, t *tracer, seconds float64, cyc *cycleStats) (start, end float64, n int) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	if e.s.loop != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runCycles(e.s.loop, r, cyc, &stop, t)
		}()
	}
	before := 0
	for _, c := range e.clients {
		before += c.done
	}
	start = m.now()
	load(e.clients, r, t, m, seconds, 0)
	end = m.now()
	stop.Store(true)
	wg.Wait()
	for _, c := range e.clients {
		n += c.done
	}
	return start, end, n - before
}

func runServe(o options, r *report, withLoop bool) error {
	e, setupS, err := setupMedian(o.meter, func() (*serveSetup, error) {
		hv, err := harvestRequests(makeTrace(o.seed), harvestSize)
		if err != nil {
			return nil, err
		}
		fix, err := loadFixture(rand.New(rand.NewSource(o.seed)))
		if err != nil {
			return nil, err
		}
		s, err := startServer(fix, o.traced, withLoop, o.seed)
		if err != nil {
			return nil, err
		}
		e := &serveSetup{hv: hv, fix: fix, s: s, clients: newClients(s, hv)}
		load(e.clients, r, nil, nil, 0, warmupRequests/len(e.clients))
		return e, nil
	}, (*serveSetup).stop)
	if err != nil {
		return err
	}
	defer e.stop()
	r.set("setup_s", setupS, "s")
	q, b := e.hv.stats()
	r.note("harvest: %d bodies, mean queue %.1f entries, mean body %.0f B", len(e.hv.bodies), q, b)
	r.note("closed loop: %d keep-alive clients, one connection each", len(e.clients))

	var (
		cyc cycleStats
		t   *tracer
	)
	if o.traced {
		t = serveTraced(o, r, e, &cyc)
	} else {
		start, end, _ := measure(e, r, o.meter, nil, o.seconds, &cyc)
		reportLatency(r, o.meter, collect(e.clients), start, end)
	}

	rejects, done := 0, 0
	for _, c := range e.clients {
		rejects += c.rejects
		done += c.done
	}
	r.note("reject ratio %.4f over %d verdicts", float64(rejects)/float64(max(done, 1)), done)
	if withLoop {
		finishOnline(o, r, e.s.loop, &cyc)
	}
	if !o.traced {
		return nil
	}
	r.set("serve.reject_ratio", float64(rejects)/float64(max(done, 1)), "ratio")
	if err := readRegistry(r, e.s.h); err != nil {
		return err
	}
	replayServe(r, t, e.hv, e.fix, o.seed)
	if withLoop {
		// The replayed swaps move the serving generation, so they run
		// after finishOnline has checked it.
		if err := replayOnline(r, t, e.s.h, o.seed); err != nil {
			return err
		}
	}
	return finishTrace(o, r, t)
}

// reportLatency prints the untraced run's serving metrics: raw medians over
// one-second windows under the names of the serving path, and the gated
// metrics scaled to the reference speed.
func reportLatency(r *report, m *speedMeter, ss []sample, start, end float64) {
	u, p90s := windowed(m, ss, start, end)
	r.note("%d round trips over %.2f s in one-second windows; p99 is pooled", len(ss), end-start)
	r.set("inspect_rps", median(u.rates), "1/s")
	r.set("inspect_p50_us", median(u.lat)*1e6, "us")
	r.set("inspect_p90_us", median(p90s), "us")
	r.set("inspect_p99_us", quantile(latencies(ss), 0.99), "us")
	u.report(r)
}

// serveTraced runs half the time untraced and half traced and reports the
// per-layer metrics that come from the load itself.
func serveTraced(o options, r *report, e *serveSetup, cyc *cycleStats) *tracer {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, end, n := measure(e, r, o.meter, nil, o.seconds/2, cyc)
	runtime.ReadMemStats(&m1)
	plainSamples := collect(e.clients)
	plainUnits, _ := windowed(o.meter, plainSamples, start, end)
	plain := latencies(plainSamples)
	r.set("serve.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/float64(max(n, 1)), "count")
	r.set("serve.bytes_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(max(n, 1)), "B")
	r.set("serve.inspect_p90_us", quantile(plain, 0.9), "us")
	r.set("serve.inspect_p99_us", quantile(plain, 0.99), "us")
	r.note("untraced half: %d verdicts in %.2f s", n, end-start)

	t := newTracer()
	e.s.tracer.Store(t)
	start, end, tn := measure(e, r, o.meter, t, o.seconds/2, cyc)
	e.s.tracer.Store(nil)
	tracedUnits, _ := windowed(o.meter, collect(e.clients), start, end)
	r.note("traced half: %d verdicts in %.2f s", tn, end-start)
	r.set("trace.overhead_pct", overheadPct(plainUnits, tracedUnits), "%")

	st := t.selfTimes()
	rt := st["net.roundtrip"]
	r.set("net.overhead_us", rt.meanSelf()/1e3, "us")
	r.set("serve.handler_us", st["serve.handler"].meanDur()/1e3, "us")
	r.set("trace.coverage_pct", 100*float64(rt.dur)/1e9/(float64(len(e.clients))*(end-start)), "%")
	return t
}

// readRegistry reads the handler's wave telemetry through its Prometheus
// exposition. It runs only after traffic has stopped.
func readRegistry(r *report, h *serve.Handler) error {
	var buf bytes.Buffer
	if err := h.Registry().WriteProm(&buf); err != nil {
		return fmt.Errorf("render registry: %w", err)
	}
	sc, err := fleet.ParseProm(buf.Bytes())
	if err != nil {
		return fmt.Errorf("parse registry: %w", err)
	}
	if f := sc.Family("schedinspector_inspect_wave_size"); f != nil && len(f.Histograms) == 1 && f.Histograms[0].Count > 0 {
		hs := f.Histograms[0]
		r.set("serve.wave_size_mean", hs.Sum/float64(hs.Count), "count")
	} else {
		r.fail("registry has no wave-size histogram")
	}
	if f := sc.Family("schedinspector_inspect_coalesce_seconds_p99"); f != nil && len(f.Samples) == 1 {
		r.set("serve.coalesce_p99_us", f.Samples[0].Value*1e6, "us")
	} else {
		r.fail("registry has no coalesce p99 gauge")
	}
	return nil
}
