package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptrace"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"r3dla/internal/lab"
	"r3dla/internal/resultstore"
)

// The serve workload's traffic. Every run sends each key of the key
// space once as a first-time (cold) request, spread over the schedule in
// a seeded order, so each seed pays for the same simulations; the rest
// of the traffic repeats keys already answered, with Zipf-skewed
// popularity. The rate makes first-time keys 3.6% of the traffic (144
// of 4,000 requests at 20 s), so p99 falls among the cold requests, the
// tail the core layer moves, and every run ranks all of them. Each run
// measures the served system's capacity at set-up and reports the load
// the rate offers it (see offeredLoad). The rest of the mix (key space,
// store bound, twins, batch share, skew) is an assumption of this
// benchmark, not taken from a measured trace; README.md says so.
const (
	serveBudget   = 6000                   // per-request simulation budget
	serveRate     = 200.0                  // offered requests per second
	serveWarm     = 16                     // keys answered before the timed phase
	serveStoreMax = 64                     // result-store bound, below the 144-key space
	serveCapacity = 64                     // admission bound (lab.WithMaxInflight)
	serveLimit    = 100 * time.Millisecond // goodput latency limit
	repeatAge     = time.Second            // repeats target keys first sent at least this long ago
	twinEvery     = 8                      // every 8th first-time key is sent twice at once
	twinGap       = 500 * time.Microsecond // the twin follows its first request by this much
	batchShare    = 0.25                   // share of requests in the batch class
	zipfS         = 1.2                    // popularity skew of repeats

	probeCold    = 16   // first-time keys the capacity probe simulates
	probeHits    = 1500 // requests for answered keys in one hit-capacity window
	probeWindows = 3    // the hit capacity is the median of this many windows

	reqHeader  = "X-Perfbench-Request" // traced runs: the request id
	spanHeader = "X-Perfbench-Span"    // traced runs: the client span id
)

// serveJobs sizes the served Lab's worker pool: one CPU is left to the
// load generator and the HTTP path, which share the process with it.
func serveJobs(nproc int) int { return max(1, nproc-1) }

// serveWorkloads are two workloads per suite.
var serveWorkloads = []string{"mcf", "libq", "bfs", "cc", "rotate", "md5", "cg", "mg"}

// serveConfigs are the 18 configurations each workload is asked for.
func serveConfigs() []lab.ConfigSpec {
	b := func(v bool) *bool { return &v }
	n := func(v int) *int { return &v }
	cfgs := []lab.ConfigSpec{
		{Preset: "baseline"},
		{Preset: "baseline", BOP: b(false)},
		{Preset: "r3", T1: b(false)},
		{Preset: "r3", ValueReuse: b(false)},
		{Preset: "r3", Recycle: b(false)},
		{Preset: "r3", FetchBuffer: b(false)},
	}
	for _, p := range []string{"dla", "r3"} {
		for _, boq := range []int{128, 512, 2048} {
			for _, fq := range []int{64, 256} {
				cfgs = append(cfgs, lab.ConfigSpec{Preset: p, BOQSize: n(boq), FQSize: n(fq)})
			}
		}
	}
	return cfgs
}

// serveKeys is the key space: every serve workload x every config.
func serveKeys() []lab.RunRequest {
	var keys []lab.RunRequest
	for _, w := range serveWorkloads {
		for _, c := range serveConfigs() {
			keys = append(keys, lab.RunRequest{Workload: w, Config: c, Budget: serveBudget})
		}
	}
	return keys
}

// arrival is one scheduled request.
type arrival struct {
	At    time.Duration // offset from the schedule's start
	Key   int           // index into the key space
	Cold  bool          // the key's first request, or its twin
	Batch bool          // batch priority class (else interactive)
}

// makeSchedule draws the open-loop schedule: round(rate x length)
// arrivals placed as a Poisson process conditioned on its count (sorted
// uniform times). Evenly spaced arrivals among them carry the first
// request of each key not warmed up, in the seeded order. Every
// twinEvery-th first request gets a twin twinGap later. Every other arrival repeats a key
// drawn with Zipf(zipfS) over the keys first sent at least repeatAge
// earlier, most popular first in send order. order lists the keys in
// send order; its first warm entries are sent before the schedule.
func makeSchedule(seed int64, nKeys, warm int, rate float64, length time.Duration) (order []int, sched []arrival, err error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7e))
	order = rng.Perm(nKeys)
	n := int(math.Round(rate * length.Seconds()))
	cold := nKeys - warm
	if warm < 1 || n < 2*cold {
		return nil, nil, fmt.Errorf("schedule of %d arrivals cannot carry %d first-time keys", n, cold)
	}
	times := make([]time.Duration, n)
	for i := range times {
		times[i] = time.Duration(rng.Float64() * float64(length))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	// First-time keys take every (n/cold)-th arrival, offset by a seeded
	// phase: new keys keep arriving at a steady share of the traffic
	// instead of clumping.
	isCold := make([]bool, n)
	phase := rng.Float64()
	for j := 0; j < cold; j++ {
		isCold[int((float64(j)+phase)*float64(n)/float64(cold))] = true
	}

	type firstSend struct {
		at  time.Duration
		key int
	}
	eligible := append([]int(nil), order[:warm]...)
	var pending []firstSend // first-time keys not yet old enough to repeat
	next := warm
	for i, t := range times {
		for len(pending) > 0 && pending[0].at <= t-repeatAge {
			eligible = append(eligible, pending[0].key)
			pending = pending[1:]
		}
		batch := rng.Float64() < batchShare
		if isCold[i] {
			k := order[next]
			sched = append(sched, arrival{At: t, Key: k, Cold: true, Batch: batch})
			if (next-warm)%twinEvery == 0 {
				sched = append(sched, arrival{At: t + twinGap, Key: k, Cold: true, Batch: batch})
			}
			pending = append(pending, firstSend{t, k})
			next++
			continue
		}
		z := rand.NewZipf(rng, zipfS, 1, uint64(len(eligible)-1))
		sched = append(sched, arrival{At: t, Key: eligible[z.Uint64()], Batch: batch})
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return order, sched, nil
}

// reqResult is one request's outcome as the client saw it. The body is
// compared with the reference answer as it arrives and then dropped, so
// the harness holds no answers while the heap is read.
type reqResult struct {
	status   int
	err      error
	match    bool          // the body equals the reference answer for its key
	latency  time.Duration // scheduled send time to full response
	late     time.Duration // how late the generator sent it
	connWait time.Duration // from the send to getting a client connection
}

func (r reqResult) ok() bool { return r.err == nil && r.status == http.StatusOK }

// tally is the latency view of a schedule's outcomes. A failed request
// (an error or any status but 200, a 503 shed included) is a failure and
// misses the latency limit: its latency counts as failLatency, a value
// no answered request in the run exceeds.
type tally struct {
	attempted, failed, good int
	latMS                   []float64
}

func tallyRequests(rs []reqResult, limit, failLatency time.Duration) tally {
	t := tally{latMS: make([]float64, 0, len(rs))}
	for _, r := range rs {
		t.attempted++
		if !r.ok() {
			t.failed++
			t.latMS = append(t.latMS, ms(failLatency))
			continue
		}
		t.latMS = append(t.latMS, ms(r.latency))
		if r.latency <= limit {
			t.good++
		}
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// capacity is the served system's closed-loop throughput, measured at
// set-up on a server and Lab of its own with the run's client (at most
// nproc connections, nproc callers): first-time keys simulated per
// second, and requests for answered keys (result-store hits) per second.
type capacity struct {
	coldRPS    float64
	hitRPS     float64   // median of hitSamples
	hitSamples []float64 // one per probe window
}

// offeredLoad is the share of the measured capacity the schedule
// offers: first-time keys, a fixed count per run, against the cold
// capacity, and the other arrivals against the hit capacity. At 1 or
// more the backlog grows and the latencies measure the queue, not the
// service.
func offeredLoad(c capacity, rate float64, cold int, length time.Duration) float64 {
	coldRate := float64(cold) / length.Seconds()
	return coldRate/c.coldRPS + (rate-coldRate)/c.hitRPS
}

// measureCapacity measures capacity on a freshly prepared Lab behind its
// own server and store: probeCold first-time keys (two per workload,
// the same on every seed) closed-loop, then probeWindows windows of
// probeHits requests cycling over those answered keys.
func measureCapacity(ctx context.Context, e *env, keys []lab.RunRequest, storeDir string) (capacity, error) {
	var c capacity
	l, err := prepareAll(ctx, e, nil, "", serveBudget, serveWorkloads, lab.WithJobs(serveJobs(e.jobs)))
	if err != nil {
		return c, err
	}
	srv, err := startServer(e, l, nil, keys, nil, storeDir)
	if err != nil {
		return c, err
	}
	defer srv.stop()
	probe := make([]int, probeCold)
	for i := range probe {
		probe[i] = i * len(keys) / probeCold
	}
	closedLoop := func(n int) (float64, error) {
		var failed atomic.Int64
		t0 := time.Now()
		forEach(e.jobs, n, func(i int) {
			if r := srv.c.post(ctx, probe[i%len(probe)], false, time.Now(), 0); !r.ok() {
				failed.Add(1)
			}
		})
		if f := failed.Load(); f > 0 {
			return 0, fmt.Errorf("capacity probe: %d of %d requests failed", f, n)
		}
		return float64(n) / time.Since(t0).Seconds(), nil
	}
	if c.coldRPS, err = closedLoop(probeCold); err != nil {
		return c, err
	}
	for w := 0; w < probeWindows; w++ {
		rps, err := closedLoop(probeHits)
		if err != nil {
			return c, err
		}
		c.hitSamples = append(c.hitSamples, rps)
	}
	c.hitRPS = median(c.hitSamples)
	return c, nil
}

// serveRun is one schedule played against a fresh server.
type serveRun struct {
	warm    []reqResult
	results []reqResult // one per arrival
	wall    time.Duration
	before  lab.Stats // after warm-up
	after   lab.Stats // after the schedule
	heapMiB float64
	store   *resultstore.Store

	gcCycles uint32        // garbage collections during the schedule
	gcPause  time.Duration // their summed stop-the-world pauses
}

// runServe: open loop, seeded arrivals at serveRate, one process, at
// most nproc client connections, against an in-process lab.Server on a
// loopback listener with a result store in the run's directory.
func runServe(ctx context.Context, e *env) (*outcome, error) {
	keys := serveKeys()
	out := &outcome{meta: map[string]any{"budget": serveBudget, "keys": len(keys), "store_bound": serveStoreMax}}
	tr := traceIf(e.trace)

	setupS, l, setupSamples, err := timeSetups(setupRepeats, func(i int) (*lab.Lab, error) {
		var str *tracer
		if i == setupRepeats-1 {
			str = tr
		}
		return prepareAll(ctx, e, str, "", serveBudget, serveWorkloads, lab.WithJobs(serveJobs(e.jobs)))
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	// The reference answers, outside the timed phase: every key through a
	// fresh in-process lab.Lab.Run. Each 200 body is compared with its
	// key's answer as it arrives.
	var ev *runEvents
	if e.trace {
		ev = newRunEvents()
	}
	want, ref, err := verifyRuns(ctx, e, serveBudget, keys, ev)
	if err != nil {
		return nil, err
	}

	order, sched, err := makeSchedule(e.seed, len(keys), serveWarm, serveRate, e.seconds)
	if err != nil {
		return nil, err
	}
	capy, err := measureCapacity(ctx, e, keys, filepath.Join(e.dir, "store-capacity"))
	if err != nil {
		return nil, err
	}

	plain, err := serveOnce(ctx, e, l, nil, keys, want, order, sched, filepath.Join(e.dir, "store-0"))
	if err != nil {
		return nil, err
	}
	runs := []*serveRun{plain}
	var traced *serveRun
	if e.trace {
		l2, err := prepareAll(ctx, e, nil, "", serveBudget, serveWorkloads, lab.WithJobs(serveJobs(e.jobs)))
		if err != nil {
			return nil, err
		}
		if traced, err = serveOnce(ctx, e, l2, tr, keys, want, order, sched, filepath.Join(e.dir, "store-1")); err != nil {
			return nil, err
		}
		runs = append(runs, traced)
	}

	for _, r := range runs {
		for i, k := range order[:serveWarm] {
			checkAnswer(out, r.warm[i], ref[k], keys[k])
		}
		for i, a := range sched {
			checkAnswer(out, r.results[i], ref[a.Key], keys[a.Key])
		}
	}

	t := tallyRequests(plain.results, serveLimit, plain.wall)
	p99, beyond := percentile(t.latMS, 99)
	if beyond < minBeyond {
		return nil, fmt.Errorf("%d requests leave fewer than %d samples beyond p99; run longer", len(t.latMS), minBeyond)
	}
	p99Metric := metric{Name: "serve.p99_ms", Value: p99, Unit: "ms", N: len(t.latMS), Note: fmt.Sprintf("untraced schedule; %d samples beyond", beyond)}
	tailP, tailV, tailBeyond, _ := tailPercentile(t.latMS)
	var lates, waits []float64
	var waitSum, latSum time.Duration
	for _, r := range plain.results {
		lates = append(lates, ms(r.late))
		waits = append(waits, ms(r.connWait))
		waitSum += r.connWait
		latSum += r.latency
	}
	lateP99, _ := percentile(lates, 99)
	waitP99, _ := percentile(waits, 99)
	out.meta["serve.capacity"] = map[string]any{"cold_rps": capy.coldRPS, "hit_rps": capy.hitRPS, "hit_rps_samples": capy.hitSamples}
	out.meta["serve.offered_load"] = offeredLoad(capy, serveRate, len(keys)-serveWarm, e.seconds)
	out.meta["offered_rps"] = float64(len(sched)) / e.seconds.Seconds()
	out.meta["serve.gen_late_ms"] = map[string]float64{"p50": median(lates), "p99": lateP99, "max": sortedCopy(lates)[len(lates)-1]}
	out.meta["serve.conn_wait_ms"] = map[string]float64{"p50": median(waits), "p99": waitP99, "share_of_latency": waitSum.Seconds() / latSum.Seconds()}
	out.meta["serve.gc"] = map[string]float64{"cycles": float64(plain.gcCycles), "pause_ms": ms(plain.gcPause)}
	out.meta["requests"] = len(sched)
	out.meta["tail"] = map[string]float64{"percentile": tailP, "ms": tailV, "beyond": float64(tailBeyond)}
	out.meta["serve.p99_ms"] = map[string]float64{"value": p99, "beyond": float64(beyond), "samples": float64(len(t.latMS))}
	out.meta["setup_samples_s"] = setupSamples
	if !e.trace {
		out.add(
			metric{Name: "setup_s", Value: setupS, Unit: "s", N: len(setupSamples), Note: "median prep of 8 workloads"},
			metric{Name: "heap_live_mib", Value: plain.heapMiB, Unit: "MiB", N: 1, Note: "after GC, end of schedule"},
			metric{Name: "latency_ms", Value: median(t.latMS), Unit: "ms", N: len(t.latMS), Note: "serve.p50_ms: from scheduled send time"},
			metric{Name: "rate_per_s", Value: float64(t.good) / plain.wall.Seconds(), Unit: "1/s", N: t.attempted,
				Note: fmt.Sprintf("serve.goodput_rps: answers within %v, per second from first send to last answer", serveLimit)},
		)
		return out, nil
	}

	if err := probePrep(tr, out, serveWorkloads, serveBudget/2, filepath.Join(e.dir, "probe-cache")); err != nil {
		return nil, err
	}
	out.add(prepMetrics(tr)...)
	var cold []coreRun
	for _, k := range order[serveWarm:] {
		if c, ok := ev.join(keys[k].Config.Preset, ref[k]); ok {
			cold = append(cold, c)
		}
	}
	out.add(coreMetrics(cold, -1)...)
	out.add(p99Metric)
	out.add(serverMetrics(tr, traced, sched)...)
	d := statsDelta(traced.before, traced.after)
	out.add(expMetrics(int(d.Store.Misses-d.Coalesced-d.Interactive.Shed-d.Batch.Shed), d.Runs)...)
	rs, err := storeMetrics(tr, traced, d, keys, want, filepath.Join(e.dir, "store-probe"))
	if err != nil {
		return nil, err
	}
	out.add(rs...)
	tt := tallyRequests(traced.results, serveLimit, traced.wall)
	out.add(overheadMetric([]float64{median(t.latMS)}, []float64{median(tt.latMS)}, false))
	out.tr = tr
	return out, nil
}

// checkAnswer counts one request: it must be a 200 whose body equalled
// the in-process answer, and that answer must not have deadlocked.
func checkAnswer(out *outcome, r reqResult, ref *lab.RunResult, req lab.RunRequest) {
	out.check(r.ok() && r.match && !ref.Deadlocked,
		"serve %s/%s: status %d err %v, body matches %v, deadlocked %v",
		req.Workload, req.Config.Preset, r.status, r.err, r.match, ref.Deadlocked)
}

// liveServer is a lab.Server on a loopback listener with a client for it.
type liveServer struct {
	c     *client
	store *resultstore.Store
	stop  func()
}

// startServer serves l on a loopback listener, with a result store in
// storeDir and the benchmark's admission bound, and returns a client
// with at most nproc connections. want, when non-nil, holds each key's
// reference answer. With a tracer, a handler wrapper records a
// server.handle span per request, carrying the client's request id.
func startServer(e *env, l *lab.Lab, tr *tracer, keys []lab.RunRequest, want [][]byte, storeDir string) (*liveServer, error) {
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		b, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	st, err := resultstore.Open(storeDir, lab.ResultsFingerprint, serveStoreMax)
	if err != nil {
		return nil, err
	}
	var h http.Handler = lab.NewServer(l, lab.WithResultStore(st), lab.WithMaxInflight(serveCapacity))
	if tr != nil {
		h = traceHandler(h, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: e.jobs, MaxIdleConnsPerHost: e.jobs, DisableCompression: true}
	return &liveServer{
		c: &client{
			http:   &http.Client{Transport: transport, Timeout: time.Minute},
			base:   "http://" + ln.Addr().String(),
			bodies: bodies,
			want:   want,
			tr:     tr,
		},
		store: st,
		stop: func() {
			transport.CloseIdleConnections()
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = hs.Shutdown(sctx) // every request has been answered; nothing is left to drain
			<-served
		},
	}, nil
}

// serveOnce starts a server over l, answers the warm-up keys one by one,
// plays the schedule open-loop, and shuts the server down. With a
// tracer it records a client span per request and a server.handle span
// carrying the same request id.
func serveOnce(ctx context.Context, e *env, l *lab.Lab, tr *tracer, keys []lab.RunRequest, want [][]byte, order []int, sched []arrival, storeDir string) (*serveRun, error) {
	srv, err := startServer(e, l, tr, keys, want, storeDir)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	c := srv.c

	run := &serveRun{store: srv.store, results: make([]reqResult, len(sched))}
	for i, k := range order[:serveWarm] {
		now := time.Now()
		run.warm = append(run.warm, c.post(ctx, k, false, now, int64(len(sched)+1+i)))
	}
	if run.before, err = c.stats(ctx); err != nil {
		return nil, err
	}

	// Collect the set-up's garbage (earlier Labs, the reference answers'
	// Lab, the capacity probe) now, not during the schedule.
	runtime.GC()
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)

	// The generator: each arrival is sent at its due time from its own
	// goroutine, whether or not earlier ones have been answered.
	start := time.Now()
	var wg sync.WaitGroup
	var lastMu sync.Mutex
	var last time.Time
	for i, a := range sched {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			r := c.post(ctx, a.Key, a.Batch, due, int64(i+1))
			run.results[i] = r
			lastMu.Lock()
			if end := due.Add(r.latency); end.After(last) {
				last = end
			}
			lastMu.Unlock()
		}(i, a)
	}
	wg.Wait()
	run.wall = last.Sub(start)
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	run.gcCycles, run.gcPause = gc1.NumGC-gc0.NumGC, time.Duration(gc1.PauseTotalNs-gc0.PauseTotalNs)
	run.heapMiB = heapLiveMiB()
	if run.after, err = c.stats(ctx); err != nil {
		return nil, err
	}
	return run, nil
}

// client is the load generator's HTTP side.
type client struct {
	http   *http.Client
	base   string
	bodies [][]byte // encoded RunRequest per key
	want   [][]byte // reference answer per key; nil when not checked
	tr     *tracer
}

// post sends one run request that was due at due, reads the whole
// answer, and compares it with the key's reference answer. It records
// when the transport handed it a connection, so a latency splits into
// the generator's lateness, the wait for one of the client's
// connections, and the rest.
func (c *client) post(ctx context.Context, key int, batch bool, due time.Time, id int64) reqResult {
	sent := time.Now()
	r := reqResult{late: sent.Sub(due)}
	spanID := c.tr.reserve()
	var gotConn atomic.Int64 // ns after sent
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { gotConn.Store(int64(time.Since(sent))) },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/runs", bytes.NewReader(c.bodies[key]))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	if batch {
		req.Header.Set(lab.PriorityHeader, lab.PriorityBatch)
	} else {
		req.Header.Set(lab.PriorityHeader, lab.PriorityInteractive)
	}
	if c.tr != nil {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := c.http.Do(req)
	if err == nil {
		r.status = resp.StatusCode
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.match = c.want != nil && bytes.Equal(body, c.want[key])
	}
	r.err = err
	end := time.Now()
	r.latency = end.Sub(due)
	r.connWait = time.Duration(gotConn.Load())
	c.tr.keep(spanID, 0, id, "serve.request", due, end)
	return r
}

func (c *client) stats(ctx context.Context) (lab.Stats, error) {
	var st lab.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// traceHandler records a server.handle span around the service's
// handler for each traced request.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		s := tr.start("server.handle", parent, id)
		h.ServeHTTP(w, r)
		s.end()
	})
}

// statsDelta is the server's counters accrued between two snapshots.
func statsDelta(a, b lab.Stats) lab.Stats {
	return lab.Stats{
		Runs:        b.Runs - a.Runs,
		Coalesced:   b.Coalesced - a.Coalesced,
		Interactive: lab.ClassStats{Shed: b.Interactive.Shed - a.Interactive.Shed},
		Batch:       lab.ClassStats{Shed: b.Batch.Shed - a.Batch.Shed},
		Store: resultstore.Stats{
			Hits: b.Store.Hits - a.Store.Hits, Misses: b.Store.Misses - a.Store.Misses,
			Puts: b.Store.Puts - a.Store.Puts, Evictions: b.Store.Evictions - a.Store.Evictions,
		},
	}
}

// serverMetrics derives the server layer's metrics from the traced
// schedule's server.handle spans, classified by the schedule itself.
func serverMetrics(tr *tracer, run *serveRun, sched []arrival) []metric {
	var hit, cold, inter, batch []float64
	for _, s := range tr.named("server.handle") {
		if s.Req < 1 || int(s.Req) > len(sched) {
			continue // warm-up
		}
		a := sched[s.Req-1]
		d := ms(s.dur())
		if a.Cold {
			cold = append(cold, d)
		} else {
			hit = append(hit, d)
		}
		if a.Batch {
			batch = append(batch, d)
		} else {
			inter = append(inter, d)
		}
	}
	failed := 0
	for _, r := range run.results {
		if !r.ok() {
			failed++
		}
	}
	d := statsDelta(run.before, run.after)
	coldP99, coldBeyond := percentile(cold, 99)
	interP99, interBeyond := percentile(inter, 99)
	batchP99, batchBeyond := percentile(batch, 99)
	return []metric{
		{Name: "server.requests", Value: float64(len(run.results)), Unit: "count", N: len(run.results)},
		{Name: "server.failed", Value: float64(failed), Unit: "count", N: len(run.results)},
		{Name: "server.hit_ms.p50", Value: median(hit), Unit: "ms", N: len(hit), Note: "handler time"},
		{Name: "server.cold_ms.p50", Value: median(cold), Unit: "ms", N: len(cold), Note: "handler time"},
		{Name: "server.cold_ms.p99", Value: coldP99, Unit: "ms", N: len(cold), Note: fmt.Sprintf("%d beyond", coldBeyond)},
		{Name: "server.interactive_ms.p99", Value: interP99, Unit: "ms", N: len(inter), Note: fmt.Sprintf("%d beyond", interBeyond)},
		{Name: "server.batch_ms.p99", Value: batchP99, Unit: "ms", N: len(batch), Note: fmt.Sprintf("%d beyond", batchBeyond)},
		{Name: "server.coalesced", Value: float64(d.Coalesced), Unit: "count", N: len(run.results)},
		{Name: "server.shed.interactive", Value: float64(d.Interactive.Shed), Unit: "count", N: len(inter)},
		{Name: "server.shed.batch", Value: float64(d.Batch.Shed), Unit: "count", N: len(batch)},
	}
}

// storeMetrics reports the result store's counters over the traced
// schedule, and times its Get and Put directly: a Get of every key still
// in the schedule's store afterwards, and a Put of every answer into an
// empty store with the same bound.
func storeMetrics(tr *tracer, run *serveRun, d lab.Stats, keys []lab.RunRequest, answers [][]byte, probeDir string) ([]metric, error) {
	probe, err := resultstore.Open(probeDir, lab.ResultsFingerprint, serveStoreMax)
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		cfg, err := k.Config.Config()
		if err != nil {
			return nil, err
		}
		key := lab.RunKey(k.Workload, cfg, serveBudget)
		s := tr.start("resultstore.Get", 0, 0)
		if _, hit := run.store.Get(key); hit {
			s.end() // only hits are timed: evicted keys fail a file open
		}
		s = tr.start("resultstore.Put", 0, 0)
		err = probe.Put(key, answers[i])
		s.end()
		if err != nil {
			return nil, err
		}
	}
	get := durations(tr.named("resultstore.Get"))
	put := durations(tr.named("resultstore.Put"))
	return []metric{
		{Name: "resultstore.hits", Value: float64(d.Store.Hits), Unit: "count", N: 1},
		{Name: "resultstore.misses", Value: float64(d.Store.Misses), Unit: "count", N: 1},
		{Name: "resultstore.puts", Value: float64(d.Store.Puts), Unit: "count", N: 1},
		{Name: "resultstore.evictions", Value: float64(d.Store.Evictions), Unit: "count", N: 1},
		{Name: "resultstore.get_us", Value: 1e6 * median(get), Unit: "us", N: len(get), Note: "median hit"},
		{Name: "resultstore.put_us", Value: 1e6 * median(put), Unit: "us", N: len(put), Note: "median"},
	}, nil
}
