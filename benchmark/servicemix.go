package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/interp"
	"fpint/internal/obs"
	"fpint/internal/service"
	"fpint/internal/sim"
	"fpint/internal/uarch"
)

// serviceMixSpec is the service-mix workload: an in-process fpintd on a
// loopback listener, driven by a closed loop of clients, one connection
// each.
type serviceMixSpec struct {
	pool    int // request bodies generated in set-up; the loop cycles through them
	clients int
	workers int
	setups  int
	warmups int
	maxReqs int // 0: until the run's seconds are spent
}

func defaultServiceMix() serviceMixSpec {
	return serviceMixSpec{pool: 10000, clients: 2, workers: 2, setups: 7, warmups: 16}
}

// The request schedule follows fixed cycles so that every seed sends the
// same mix; the seed picks the program text, the phase of the named
// programs and which earlier body each repeat copies.
var (
	svcKinds = [10]string{
		service.KindCompile, service.KindCompile, service.KindCompile,
		service.KindPartition, service.KindPartition,
		service.KindSimulate, service.KindSimulate, service.KindSimulate, service.KindSimulate, service.KindSimulate,
	}
	svcNamed   = []string{"li", "ijpeg", "compress", "m88ksim"}
	svcSchemes = []string{"none", "basic", "advanced", "balanced"}
	svcTimings = []string{"functional", "fast", "detailed"}
	svcConfigs = []string{"4way", "8way"}
)

// repeatWindow is how far back a repeated body reaches: recent enough that
// the daemon's bounded cache (1024 entries, random eviction) still holds
// it, so a repeat takes the cache-hit path.
const repeatWindow = 32

// svcReq is one request of the schedule.
type svcReq struct {
	kind     string
	req      service.Request
	body     []byte
	repeatOf int // index of the request this one repeats verbatim, or -1
}

// isRepeat: requests 3, 6 and 9 of every ten repeat an earlier body (30%).
func isRepeat(i int) bool { s := i % 10; return s == 3 || s == 6 || s == 9 }

// requests builds the first n requests of a seed's schedule. Of the unique
// requests, one in twenty names a built-in program (one per block of
// twenty, at a position that walks the endpoint cycle) and the rest carry
// generated source; endpoints split 30/20/50 and simulate requests cycle
// functional/fast/detailed on both configurations.
func requests(seed int64, n int) []svcReq {
	pick := rand.New(rand.NewSource(splitmix(seed, streamServicePick, 0)))
	phase := int(uint64(seed) % uint64(len(svcNamed)))
	out := make([]svcReq, n)
	var uniques []int
	u, named, sims := 0, 0, 0
	for i := range out {
		if isRepeat(i) && len(uniques) > 0 {
			recent := uniques[max(0, len(uniques)-repeatWindow):]
			k := recent[pick.Intn(len(recent))]
			out[i] = out[k]
			out[i].repeatOf = k
			continue
		}
		q := svcReq{kind: svcKinds[u%10], repeatOf: -1}
		if u%20 == (u/20)%10 {
			q.req.Workload = svcNamed[(named+phase)%len(svcNamed)]
			named++
		} else {
			q.req.Source = genProgram(seed, streamService, u)
		}
		q.req.Scheme = svcSchemes[(u/10)%len(svcSchemes)]
		q.req.Analysis = "off"
		if (u/40)%2 == 0 {
			q.req.Analysis = "on"
		}
		if q.kind == service.KindSimulate {
			q.req.Timing = svcTimings[sims%len(svcTimings)]
			q.req.Config = svcConfigs[(sims/len(svcTimings))%len(svcConfigs)]
			sims++
		}
		body, err := json.Marshal(&q.req)
		if err != nil {
			panic(err) // a struct of strings always encodes
		}
		q.body = body
		out[i] = q
		uniques = append(uniques, i)
		u++
	}
	return out
}

// warmups are untimed requests sent to a fresh daemon, drawn from their own
// stream so they never pre-fill the cache for the measured requests.
func warmups(seed int64, n int) []svcReq {
	out := make([]svcReq, n)
	for k := range out {
		q := svcReq{kind: svcKinds[(k*3)%10], repeatOf: -1}
		q.req.Source = genProgram(seed, streamServiceWarm, k)
		if q.kind == service.KindSimulate {
			q.req.Timing = svcTimings[k%len(svcTimings)]
		}
		q.body, _ = json.Marshal(&q.req)
		out[k] = q
	}
	return out
}

// daemon is an in-process fpintd serving on a loopback port.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan error
}

func startDaemon(workers int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:  service.New(service.Options{Workers: workers}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the listener and connections, drains the pool, and waits for
// the serving goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	d.srv.Drain()
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// newClient is one client with one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// svcOutcome is one answered (or failed) request.
type svcOutcome struct {
	i      int
	lat    time.Duration
	status int
	body   []byte
	err    error
	call   *call // traced runs: the request span
}

func (d *daemon) post(cl *http.Client, q *svcReq) svcOutcome {
	resp, err := cl.Post(d.url+"/v1/"+q.kind, "application/json", bytes.NewReader(q.body))
	if err != nil {
		return svcOutcome{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return svcOutcome{status: resp.StatusCode, body: body, err: err}
}

// statsz scrapes the daemon's counters.
func (d *daemon) statsz(cl *http.Client) (map[string]int64, error) {
	resp, err := cl.Get(d.url + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	return doc.Counters, nil
}

// closedLoop sends requests from clients goroutines, each sending its next
// request only when the previous one is answered, until budget has passed
// (budget 0: no time limit) or limit requests were claimed (0: no limit).
// With a tracer, each request is a job whose one call is the round trip.
func (d *daemon) closedLoop(reqs []svcReq, clients int, budget time.Duration, limit int, tr *tracer) ([]svcOutcome, time.Duration) {
	var next atomic.Int64
	outs := make([][]svcOutcome, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for budget == 0 || time.Since(start) < budget {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				q := &reqs[i%len(reqs)]
				var o svcOutcome
				if tr != nil {
					j := tr.begin("job", c)
					rc := j.time(spanServiceReq, func() { o = d.post(cl, q) })
					tr.end(j)
					o.lat, o.call = rc.dur, rc
				} else {
					t := time.Now()
					o = d.post(cl, q)
					o.lat = time.Since(t)
				}
				o.i = i
				outs[c] = append(outs[c], o)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []svcOutcome
	for _, o := range outs {
		all = append(all, o...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	return all, elapsed
}

// setup starts a daemon and warms it with untimed requests: the time
// until it answers real work.
func (sp serviceMixSpec) setup(warm []svcReq) (*daemon, error) {
	d, err := startDaemon(sp.workers)
	if err != nil {
		return nil, err
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	for _, q := range warm {
		if o := d.post(cl, &q); o.err != nil || o.status != http.StatusOK {
			d.stop()
			return nil, fmt.Errorf("warm-up %s: status %d: %v", q.kind, o.status, o.err)
		}
	}
	return d, nil
}

func runServiceMix(name string, sp serviceMixSpec, rc runConfig) (*result, error) {
	r := &result{workload: name}
	reqs := requests(rc.seed, sp.pool)
	warm := warmups(rc.seed, sp.warmups)
	var setups []float64
	var d *daemon
	for i := 0; i < max(sp.setups, 1); i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stop daemon: %w", err)
			}
		}
		t := time.Now()
		var err error
		if d, err = sp.setup(warm); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		runtime.GC()
	}

	cl := newClient()
	defer cl.CloseIdleConnections()
	before, err := d.statsz(cl)
	if err != nil {
		d.stop()
		return nil, err
	}
	mm := memMeter{on: rc.trace}
	mm.start()
	outs, elapsed := d.closedLoop(reqs, sp.clients, rc.seconds, sp.maxReqs, nil)
	mm.stop()
	after, err := d.statsz(cl)
	if err == nil {
		err = d.stop()
	}
	if err != nil {
		return nil, err
	}
	rss := peakRSS()

	c := &counters{}
	r.attempted = len(outs)
	ok := verifyOutcomes(r, reqs, outs, c)
	var lat []float64
	var inJob time.Duration
	for i, o := range outs {
		if ok[i] {
			lat = append(lat, ms(o.lat))
			inJob += o.lat
		}
	}
	if len(lat) == 0 {
		return r, nil
	}
	lm := latencyMetrics(lat)
	hits := after[obs.PrefixService+obs.MetricServiceCacheHits] - before[obs.PrefixService+obs.MetricServiceCacheHits]
	misses := after[obs.PrefixService+obs.MetricServiceCacheMisses] - before[obs.PrefixService+obs.MetricServiceCacheMisses]
	shed := after[obs.PrefixService+obs.MetricServiceShed] - before[obs.PrefixService+obs.MetricServiceShed]
	accepted := after[obs.PrefixService+obs.MetricServiceAccepted] - before[obs.PrefixService+obs.MetricServiceAccepted]
	r.metrics = append(r.metrics,
		metric{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups)},
		metric{Name: "jobs_per_s", Value: float64(len(lat)) / elapsed.Seconds(), Unit: "1/s", N: len(lat)},
		lm[0], rss)
	svc := svcLayer{hits: hits, lookups: hits + misses, shed: shed, offered: accepted + shed}
	r.notes = append(r.notes, lm[1], svc.hitRatio(), svc.shedRatio())

	if rc.trace {
		tr, err := sp.traced(reqs, len(outs), c, &svc)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		l := tr.ledger()
		r.trace, r.ledger = tr, &l
		r.layers = layerMetrics(l, c, mm.sum, len(lat), inJob, svc)
	}
	return r, nil
}

// verifyOutcomes checks every answer, untimed, after the loop: a 200 with
// a clean or degraded class and the document its endpoint promises, and
// for simulate the interpreter's exit value and output. It reports which
// requests passed.
func verifyOutcomes(r *result, reqs []svcReq, outs []svcOutcome, c *counters) []bool {
	refs := map[string]*interp.Result{}
	ok := make([]bool, len(outs))
	for i, o := range outs {
		q := &reqs[o.i%len(reqs)]
		if err := checkOutcome(q, o, refs, c); err != nil {
			r.fail("request %d (%s): %v", o.i, q.kind, err)
			continue
		}
		ok[i] = true
	}
	return ok
}

func checkOutcome(q *svcReq, o svcOutcome, refs map[string]*interp.Result, c *counters) error {
	if o.err != nil {
		return fmt.Errorf("transport: %w", o.err)
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
	}
	var resp service.Response
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if resp.Class != "none" && resp.Class != "degraded" {
		return fmt.Errorf("class %s: %s", resp.Class, resp.Error)
	}
	switch q.kind {
	case service.KindCompile:
		if resp.Compile == nil {
			return errors.New("no compile report")
		}
	case service.KindPartition:
		if resp.Partition == nil {
			return errors.New("no partition report")
		}
	case service.KindSimulate:
		if resp.Simulate == nil {
			return errors.New("no simulate report")
		}
		src := q.source()
		ref, ok := refs[src]
		if !ok {
			mod, err := optimized(src)
			if err != nil {
				return fmt.Errorf("reference frontend: %w", err)
			}
			t := time.Now()
			ref, err = interp.New(mod).Run()
			c.refTime += time.Since(t)
			c.refRuns++
			if err != nil {
				return fmt.Errorf("reference run: %w", err)
			}
			refs[src] = ref
		}
		if resp.Simulate.Exit != ref.Ret || resp.Simulate.Output != ref.Output {
			return fmt.Errorf("exit %d, interpreter says %d", resp.Simulate.Exit, ref.Ret)
		}
	}
	return nil
}

// source is the program text the request names.
func (q *svcReq) source() string {
	if q.req.Workload != "" {
		return bench.Lookup(q.req.Workload).Src
	}
	return q.req.Source
}

// svcLayer holds the daemon's own counters and the per-request overhead
// measured against direct-call twins.
type svcLayer struct {
	hits, lookups int64
	shed, offered int64
	requestTime   time.Duration
	requests      int
	overheads     []float64 // request − direct-call time, ms, cache misses only
}

func (s svcLayer) hitRatio() metric {
	return ratio(obs.PrefixService+"cache_hit_frac", s.hits, s.lookups)
}

func (s svcLayer) shedRatio() metric {
	return ratio(obs.PrefixService+"shed_frac", s.shed, s.offered)
}

// metrics are the service rows of the per-layer set; a workload that does
// not go through the daemon reports them as zero.
func (s svcLayer) metrics() []metric {
	req := metric{Name: obs.PrefixService + "request_ms", Unit: "ms/req", N: s.requests}
	if s.requests > 0 {
		req.Value = ms(s.requestTime) / float64(s.requests)
	}
	ov := metric{Name: obs.PrefixService + "overhead_p50_ms", Unit: "ms/req", N: len(s.overheads)}
	if len(s.overheads) > 0 {
		ov.Value = median(s.overheads)
	}
	return []metric{req, s.hitRatio(), s.shedRatio(), ov}
}

// traced re-sends the same requests to a fresh daemon with a span around
// each round trip, then runs every request the daemon computed (a cache
// miss) again as a direct call through the layers. The twin's per-row self
// times become kids of the request span; what remains of the request is the
// daemon's own overhead.
func (sp serviceMixSpec) traced(reqs []svcReq, n int, c *counters, svc *svcLayer) (*tracer, error) {
	d, err := startDaemon(sp.workers)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	outs, _ := d.closedLoop(reqs, sp.clients, 0, n, tr)
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop daemon: %w", err)
	}
	fm := sim.NewMachine()
	machines := map[string]*uarch.Machine{}
	for _, o := range outs {
		svc.requests++
		svc.requestTime += o.call.dur
		var resp service.Response
		if o.err != nil || o.status != http.StatusOK || json.Unmarshal(o.body, &resp) != nil {
			return nil, fmt.Errorf("request %d failed in the traced run", o.i)
		}
		if resp.Cached {
			continue
		}
		q := &reqs[o.i%len(reqs)]
		tw := tr.begin("twin", 0)
		cp, tm, err := direct(tw, q, machines, c)
		tr.end(tw)
		if err != nil {
			return nil, fmt.Errorf("twin of request %d: %w", o.i, err)
		}
		cp.runTwin()
		if tm != nil {
			if err := tm.runTwin(fm, c); err != nil {
				return nil, err
			}
		}
		rows := map[string]time.Duration{}
		total := tw.rows(rows)
		scale := 1.0
		if total > o.call.dur {
			scale = float64(o.call.dur) / float64(total)
		}
		for _, row := range sortedRows(rows) {
			o.call.addKid(row, time.Duration(float64(rows[row])*scale))
		}
		svc.overheads = append(svc.overheads, ms(o.call.dur-total))
	}
	return tr, nil
}

// direct does what the daemon's worker does for q, one layer call at a
// time: frontend, compile down the fallback ladder, then the engine a
// simulate request names on a warm machine per configuration.
func direct(j *jobTrace, q *svcReq, machines map[string]*uarch.Machine, c *counters) (*compiled, *timed, error) {
	opts := codegen.Options{Analysis: q.req.Analysis == "on"}
	switch q.req.Scheme {
	case "none":
		opts.Scheme = codegen.SchemeNone
	case "basic":
		opts.Scheme = codegen.SchemeBasic
	case "advanced":
		opts.Scheme = codegen.SchemeAdvanced
	case "balanced":
		opts.Scheme = codegen.SchemeBalanced
	}
	mod, prof, err := frontend(j, q.source(), c)
	if err != nil {
		return nil, nil, err
	}
	opts.Profile = prof
	cp, err := compile(j, mod, opts, true, c)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case q.kind == service.KindCompile:
		codegen.BuildCompileReport(q.req.Scheme, mod.Funcs, cp.res, nil)
	case q.kind == service.KindSimulate && q.req.Timing == "functional":
		return cp, nil, functional(j, cp.res.Prog, c)
	case q.kind == service.KindSimulate:
		cfg := uarch.Config4Way()
		if q.req.Config == "8way" {
			cfg = uarch.Config8Way()
		}
		m := machines[cfg.Name]
		if m == nil {
			m = uarch.NewMachine(cfg)
			machines[cfg.Name] = m
		}
		prog := cp.res.Prog
		run := detailed(func() (*sim.Result, uarch.Stats, error) { return m.Run(prog) })
		if q.req.Timing == "fast" {
			run = func() (*sim.Result, uarch.SampledStats, error) {
				return m.RunSampled(prog, uarch.DefaultSampleConfig())
			}
		}
		tm, err := runTiming(j, prog, run, c)
		return cp, tm, err
	}
	return cp, nil, nil
}
