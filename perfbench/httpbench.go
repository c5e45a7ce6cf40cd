package main

// The HTTP workloads: open-loop load against a memsd spawned from the
// tree. http-warm replays a small body set that memsd's cache holds after
// one warm-up pass, so HTTP, middleware, decode, fingerprint and cache
// lookup do all the work. http-cold sends a unique body per request to a
// daemon whose cache is smaller than the run's key count, so the closed
// forms and the simulator do most of it and the cache inserts and evicts.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"memstream"
	"memstream/internal/explore"
	"memstream/internal/service"
	"memstream/internal/workload"
)

// httpSetupReps is the fewest set-ups an HTTP run times; setup_s is their
// median. A set-up takes milliseconds, so many samples cost little.
const httpSetupReps = 41

// coldCacheEntries is http-cold's cache bound: far below the number of
// distinct keys a run sends, so the cache keeps evicting.
const coldCacheEntries = 64

// Traced replays drive this many requests of the workload's sequence
// through the service in process.
const (
	warmReplay = 2000
	coldReplay = 160
)

// httpWorkload is one HTTP workload's inputs.
type httpWorkload struct {
	cold  bool
	rate  float64
	args  []string
	warm  []request
	seq   []int
	seed  uint64
	conns int
}

func newHTTPWorkload(o options) *httpWorkload {
	w := &httpWorkload{cold: o.workload == "http-cold", seed: o.seed, conns: runtime.NumCPU()}
	if w.cold {
		w.rate = o.coldRPS
		w.args = []string{"-cache-entries", strconv.Itoa(coldCacheEntries)}
	} else {
		w.rate = o.warmRPS
		w.warm = warmSet(o.seed)
		w.seq = warmSequence(o.seed, len(w.warm))
	}
	return w
}

// at returns request i of the workload's sequence.
func (w *httpWorkload) at(i int) *request {
	if w.cold {
		r := coldRequest(w.seed, i)
		return &r
	}
	return &w.warm[w.seq[i%len(w.seq)]]
}

// from returns the sequence numbered from request first on.
func (w *httpWorkload) from(first int) func(int) *request {
	return func(i int) *request { return w.at(first + i) }
}

// setUp spawns a daemon until /healthz answers and, on http-warm, sends
// every body of the set once. It returns the daemon and the seconds that
// took.
func (w *httpWorkload) setUp(bin string) (*daemon, float64, error) {
	start := time.Now()
	d, err := spawnReady(bin, w.args...)
	if err != nil {
		return nil, 0, err
	}
	if err := w.warmUp(d); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, since(start), nil
}

// timeSetUp sets up a spare daemon and stops it. It returns the wall time
// of the set-up and the CPU time the daemon used over its whole life, which
// only its start, /healthz, the warm-up pass and its exit fill.
func (w *httpWorkload) timeSetUp(bin string) (wall, cpu float64, err error) {
	d, wall, err := w.setUp(bin)
	if err != nil {
		return 0, 0, err
	}
	d.stop()
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0, fmt.Errorf("no resource usage for memsd on %s", runtime.GOOS)
	}
	return wall, time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}

// warmUp sends each body of the warm set once, so the timed phases hit.
func (w *httpWorkload) warmUp(d *daemon) error {
	c := newLoadClient(d.base, 1)
	defer c.close()
	for i := range w.warm {
		o := outcome{req: &w.warm[i]}
		c.send(&o, false)
		if !o.ok() {
			return fmt.Errorf("warm-up %s: status %d: %v", o.req.path, o.status, o.err)
		}
	}
	return nil
}

// keepEvery selects every stride-th request's answer for the comparison
// with an in-process reference service.
func keepEvery(stride int) func(int) bool {
	return func(i int) bool { return i%stride == 0 }
}

// counters are the /metricsz families the benchmark reads.
type counters struct {
	hits, misses, evictions, steps, tasks, shed float64
}

func readCounters(d *daemon) (counters, error) {
	mz, err := d.scrape()
	if err != nil {
		return counters{}, err
	}
	return counters{
		hits:      mz["memsd_cache_hits_total"],
		misses:    mz["memsd_cache_misses_total"],
		evictions: mz["memsd_cache_evictions_total"],
		steps:     mz["memsd_engine_steps_total"],
		tasks:     mz["memsd_pool_tasks_executed_total"],
		shed:      mz["memsd_http_requests_shed_total"],
	}, nil
}

func (a counters) sub(b counters) counters {
	return counters{a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions,
		a.steps - b.steps, a.tasks - b.tasks, a.shed - b.shed}
}

// tallyOutcomes counts attempts and failures and returns the 2xx count.
func tallyOutcomes(m *measurement, outs []outcome) int {
	good := 0
	for i := range outs {
		m.attempted++
		if outs[i].ok() {
			good++
		} else {
			m.failed++
		}
	}
	return good
}

// latencyQuantile returns a nearest-rank quantile of the outcomes' due-time
// latencies, in milliseconds.
func latencyQuantile(outs []outcome, q float64, f func(*outcome) time.Duration) float64 {
	xs := make([]float64, len(outs))
	for i := range outs {
		xs[i] = float64(f(&outs[i])) / 1e6
	}
	sort.Float64s(xs)
	return quantile(xs, q)
}

func latencyOf(o *outcome) time.Duration { return o.latency() }

func lagOf(o *outcome) time.Duration { return o.sent.Sub(o.due) }

// verifyBodies compares every kept 2xx body with the answer of an
// in-process reference service to the same request bytes.
func verifyBodies(ref *service.Service, outs []outcome, m *measurement) {
	ctx := context.Background()
	for i := range outs {
		o := &outs[i]
		if o.body == nil || !o.ok() {
			continue
		}
		call, err := decodeFor(ref, o.req.path, o.req.body)
		if err != nil {
			m.problem("reference decode %s: %v", o.req.path, err)
			continue
		}
		want, err := call(ctx)
		if err != nil {
			m.problem("reference %s: %v", o.req.path, err)
			continue
		}
		if !bytes.Equal(o.body, want) {
			m.problem("%s %s: memsd answered %d bytes that differ from the reference's %d", o.req.path, o.req.body, len(o.body), len(want))
		}
	}
}

// decodeFor strictly decodes body as the request type of path, as memsd's
// endpoint does, and returns the typed call that answers it on svc.
func decodeFor(svc *service.Service, path string, body []byte) (func(context.Context) ([]byte, error), error) {
	switch path {
	case "/v1/dimension":
		return decodeInto(body, svc.DimensionBytes)
	case "/v1/breakeven":
		return decodeInto(body, svc.BreakEvenBytes)
	case "/v1/sweep":
		return decodeInto(body, svc.SweepBytes)
	case "/v1/simulate":
		return decodeInto(body, svc.SimulateBytes)
	case "/v1/multisim":
		return decodeInto(body, svc.MultiSimBytes)
	}
	return nil, fmt.Errorf("no request type for %s", path)
}

func decodeInto[Req any](body []byte, serve func(context.Context, Req) ([]byte, error)) (func(context.Context) ([]byte, error), error) {
	var req Req
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after the request object")
	}
	return func(ctx context.Context) ([]byte, error) { return serve(ctx, req) }, nil
}

// runHTTP measures http-warm or http-cold.
func runHTTP(o options, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	w := newHTTPWorkload(o)
	d, _, err := w.setUp(o.memsd)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c := newLoadClient(d.base, w.conns)
	defer c.close()
	c0, err := readCounters(d)
	if err != nil {
		return nil, err
	}
	if !w.cold && c0.misses != float64(len(w.warm)) {
		m.problem("warm-up computed %v answers, want one per body of the %d-body set", c0.misses, len(w.warm))
	}
	if tr != nil {
		return m, w.traced(o, tr, d, c, m)
	}

	// Rounds of a fixed-rate phase followed by spare set-ups, so both kinds
	// of sample span the run. The requests continue one sequence across
	// rounds, so on http-cold every body of the run is fresh.
	rounds := max(3, int(math.Round(o.seconds/3)))
	n := max(1, int(w.rate*o.seconds/float64(rounds)))
	setupsPerRound := (httpSetupReps + rounds - 1) / rounds
	var setupWalls, setupCPUs, p50s []float64
	// cpu is memsd's CPU time over the fixed-rate phases; answered and
	// hours count their 2xx answers and the simulated hours in them.
	var cpu, hours float64
	answered := 0
	var kept []outcome
	for r := range rounds {
		cpu0, err := cpuSeconds(d.pid)
		if err != nil {
			return nil, err
		}
		outs := c.openLoop(n, w.rate, w.from(r*n), keepEvery(23), nil)
		cpu1, err := cpuSeconds(d.pid)
		if err != nil {
			return nil, err
		}
		cpu += cpu1 - cpu0
		answered += tallyOutcomes(m, outs)
		p50s = append(p50s, latencyQuantile(outs, 0.5, latencyOf))
		for i := range outs {
			if outs[i].ok() {
				hours += outs[i].req.simHours
			}
			if outs[i].body != nil {
				kept = append(kept, outs[i])
			}
		}
		for range setupsPerRound {
			setupWall, setupCPU, err := w.timeSetUp(o.memsd)
			if err != nil {
				return nil, err
			}
			setupWalls = append(setupWalls, setupWall)
			setupCPUs = append(setupCPUs, setupCPU)
		}
	}
	// Every time and rate is taken from CPU time at the fixed rate; see
	// README.md. /proc counts CPU time in 10 ms ticks, so it is summed over
	// every round. The capacity is the rate at which the machine's CPUs,
	// given to memsd alone, would answer at that CPU time per answer.
	m.set("setup_s", median(setupCPUs))
	perAnswer := cpu / float64(max(answered, 1))
	m.set("cpu_us_per_req", perAnswer*1e6)
	capacity := float64(runtime.NumCPU()) / perAnswer
	m.set("throughput_rps", capacity)
	m.set("sim_hours_per_s", capacity*hours/float64(max(answered, 1)))
	rss, err := peakRSSMiB(d.pid)
	if err != nil {
		return nil, err
	}
	m.set("peak_rss_mb", rss)

	c1, err := readCounters(d)
	if err != nil {
		return nil, err
	}
	if delta := c1.sub(c0); !w.cold && delta.misses != 0 {
		m.problem("http-warm missed the cache %v times after warm-up (hit ratio %.6f, want 1)",
			delta.misses, delta.hits/(delta.hits+delta.misses))
	}
	verifyBodies(service.New(service.Config{}), kept, m)
	m.note("%s: %d rounds of %d requests at %g/s on %d connections; %d answers verified",
		o.workload, rounds, n, w.rate, w.conns, len(kept))
	m.note("%s: median set-up %.4g s of CPU time, %.4g s of wall time, of %d spare daemons",
		o.workload, median(setupCPUs), median(setupWalls), len(setupCPUs))
	m.note("%s: latency at %g/s, median over rounds: p50 %.4g ms (not a bounded metric: it follows the host's load)",
		o.workload, w.rate, median(p50s))
	return m, nil
}

// traced runs the fixed-rate phase untraced and then traced, reads the
// daemon's counters around the traced phase, and replays the workload's
// sequence through the service layers in process.
func (w *httpWorkload) traced(o options, tr *tracer, d *daemon, c *loadClient, m *measurement) error {
	phase := time.Duration(0.35 * o.seconds * float64(time.Second))
	n := max(1, int(w.rate*phase.Seconds()))
	noKeep := func(int) bool { return false }
	plain := c.openLoop(n, w.rate, w.from(0), noKeep, nil)
	tallyOutcomes(m, plain)
	before, err := readCounters(d)
	if err != nil {
		return err
	}
	outs := c.openLoop(n, w.rate, w.from(n), noKeep, tr)
	good := tallyOutcomes(m, outs)
	after, err := readCounters(d)
	if err != nil {
		return err
	}
	delta := after.sub(before)
	per := func(v float64) float64 { return v / float64(max(good, 1)) }
	hitRatio := 0.0
	if delta.hits+delta.misses > 0 {
		hitRatio = delta.hits / (delta.hits + delta.misses)
	}
	if !w.cold && hitRatio != 1 {
		m.problem("http-warm cache hit ratio %.6f after warm-up, want 1", hitRatio)
	}
	m.set("cache.hit_ratio", hitRatio)
	m.set("cache.evictions_per_req", per(delta.evictions))
	m.set("engine.steps_per_req", per(delta.steps))
	m.set("pool.tasks_per_req", per(delta.tasks))
	m.set("http.shed", delta.shed)
	p50 := latencyQuantile(outs, 0.5, latencyOf)
	m.set("http.p50_ms", p50)
	m.set("http.p99_ms", latencyQuantile(outs, 0.99, latencyOf))
	m.set("http.p99_samples", float64(len(outs)))
	m.set("loadgen.lag_p99_ms", latencyQuantile(outs, 0.99, lagOf))
	m.set("trace.overhead_pct", (p50/latencyQuantile(plain, 0.5, latencyOf)-1)*100)

	// In-process replay of the workload's own sequence: the warm-up pass
	// and then the timed order on http-warm, the first fresh bodies on
	// http-cold.
	var reqs []*request
	entries := 0
	if w.cold {
		entries = coldCacheEntries
		for i := range coldReplay {
			reqs = append(reqs, w.at(i))
		}
	} else {
		for i := range w.warm {
			reqs = append(reqs, &w.warm[i])
		}
		for i := range warmReplay {
			reqs = append(reqs, w.at(i))
		}
	}
	handlerP50, err := replay(tr, reqs, entries, m)
	if err != nil {
		return err
	}
	m.set("net.overhead_us", p50*1e3-handlerP50)
	// The replica pool runs inside the daemon, where the benchmark's spans
	// do not reach; its task count per request is read from /metricsz.
	m.set("parallel.busy_share", 0)
	return nil
}

// replay drives reqs through two fresh services in process. On the first
// it times the strict decode and the typed Bytes call, classified as a hit
// or a miss by the cache counters; on the second it times the full handler
// behind the access log, through an in-memory response writer. Requests
// that missed are then probed layer by layer: the closed-form sweep, and
// the simulator's generators, build and run. It returns the median handler
// self time in microseconds.
func replay(tr *tracer, reqs []*request, cacheEntries int, m *measurement) (float64, error) {
	ctx := context.Background()
	svc := service.New(service.Config{CacheEntries: cacheEntries})
	handled := service.New(service.Config{CacheEntries: cacheEntries})
	h := memstream.AccessLog(slog.New(slog.NewTextHandler(io.Discard, nil)), handled.Handler())
	var tally simTally
	var buf []workload.BestEffortRequest
	points := 0
	for _, r := range reqs {
		root := tr.begin(0)
		ds := tr.begin(root.id)
		call, err := decodeFor(svc, r.path, r.body)
		tr.finish(ds, "service.decode")
		if err != nil {
			return 0, fmt.Errorf("replay decode %s: %w", r.path, err)
		}
		hits := svc.CacheStats().Hits
		start := time.Now()
		body, err := call(ctx)
		end := time.Now()
		if err != nil {
			return 0, fmt.Errorf("replay %s: %w", r.path, err)
		}
		hit := svc.CacheStats().Hits > hits
		name := "service.bytes_miss"
		if hit {
			name = "service.bytes_hit"
		}
		tr.record(name, root.id, start, end)

		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
		start = time.Now()
		h.ServeHTTP(rec, hreq)
		tr.record("service.handler", root.id, start, time.Now())
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), body) {
			m.problem("replay %s: handler answered %d with a body that differs from the typed call's", r.path, rec.Code)
		}
		tr.finish(root, "service.request")
		if hit {
			continue
		}
		if len(r.rates) > 0 {
			es := tr.begin(0)
			_, err := explore.RunContext(ctx, explore.Config{Device: defaultDevice, Goal: goal, Workers: 1}, r.rates)
			tr.finish(es, "explore.run")
			if err != nil {
				return 0, fmt.Errorf("replay explore: %w", err)
			}
			points += len(r.rates)
		}
		if err := probeSim(tr, r, &buf, &tally); err != nil {
			return 0, err
		}
	}
	self := tr.selfTimes()
	tally.report(self, tally, m)
	usMedian := func(name string) float64 {
		lt := self[name]
		if lt == nil {
			return 0
		}
		return median(lt.Selfs) / 1e3
	}
	m.set("service.decode_us", usMedian("service.decode"))
	m.set("service.bytes_hit_us", usMedian("service.bytes_hit"))
	m.set("service.bytes_miss_us", usMedian("service.bytes_miss"))
	m.set("service.handler_us", usMedian("service.handler"))
	explorePoint := 0.0
	if lt := self["explore.run"]; lt != nil && points > 0 {
		explorePoint = float64(lt.Self.Microseconds()) / float64(points)
	}
	m.set("explore.point_us", explorePoint)
	return usMedian("service.handler"), nil
}
