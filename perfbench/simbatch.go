package main

// The sim-batch workload: seed-varied replica batches of the paper's
// streaming configurations, run in process on one worker per CPU. The
// workload, sim, engine and parallel layers do all the work; the service
// layer does none.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"memstream/internal/device"
	"memstream/internal/parallel"
	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// defaultSeed is the workload seed used when -seed is not given.
const defaultSeed = 1

// defaultSeedDigest is the SHA-256 of the JSON encoding of every replica's
// statistics in batch 0 at the default seed. The engine is pinned bit for
// bit by internal/sim/testdata/unify_golden.json, so a change that only
// makes the code faster leaves this digest unchanged.
const defaultSeedDigest = "aed55b9f28b3e03cf671487ca438e4c53e2511261c07c03224da8a600d3c84af"

// minSimSetups is the fewest set-ups sim-batch times, however short the
// run; a run of the benchmark's length times one after every batch.
const minSimSetups = 7

// simCase is one configuration of a batch and its replica count.
type simCase struct {
	name     string
	single   sim.Config
	multi    sim.MultiConfig
	isMulti  bool
	replicas int
}

// duration returns the simulated time of one replica.
func (c simCase) duration() units.Duration {
	if c.isMulti {
		return c.multi.Duration
	}
	return c.single.Duration
}

// bestEffort returns the case's best-effort process.
func (c simCase) bestEffort() workload.BestEffortProcess {
	if c.isMulti {
		return c.multi.BestEffort
	}
	return c.single.BestEffort
}

// simCases returns one batch: CBR, VBR and frame-accurate video single
// streams and the four-stream shared device, one simulated hour each with
// the default 5 % best effort, plus one day-long CBR stream whose
// materialised best-effort request list dominates the memory footprint.
func simCases() []simCase {
	dev := device.DefaultMEMS()
	be := workload.NewBestEffortProcess(0.05, sim.Config{Device: dev}.MediaRate(), 1)
	single := func(name string, spec workload.StreamSpec, buffer units.Size, d units.Duration, replicas int) simCase {
		return simCase{name: name, replicas: replicas, single: sim.Config{
			Device:     dev,
			DRAM:       device.DefaultDRAM(),
			Buffer:     buffer,
			Spec:       spec,
			BestEffort: be,
			Duration:   d,
			Seed:       1,
		}}
	}
	return []simCase{
		single("cbr-1h", workload.CBRSpec(1024*units.Kbps), 64*units.KiB, units.Hour, 8),
		single("vbr-1h", workload.VBRSpec(512*units.Kbps, 1), 48*units.KiB, units.Hour, 8),
		single("video-1h", workload.VideoSpec(1024*units.Kbps, 1), 128*units.KiB, units.Hour, 8),
		{name: "multi4-1h", isMulti: true, replicas: 8, multi: sim.MultiConfig{
			Device:     dev,
			DRAM:       device.DefaultDRAM(),
			Streams:    fourStreams(),
			BestEffort: be,
			Duration:   units.Hour,
			Seed:       1,
		}},
		single("cbr-24h", workload.CBRSpec(1024*units.Kbps), 64*units.KiB, 24*units.Hour, 2),
	}
}

// fourStreams is the shared-device mix: playback, a camera, a backup and an
// audio stream, each with a two-second buffer.
func fourStreams() []sim.MultiStream {
	stream := func(name string, spec workload.StreamSpec) sim.MultiStream {
		return sim.MultiStream{Name: name, Spec: spec, Buffer: spec.Rate.Times(2 * units.Second)}
	}
	return []sim.MultiStream{
		stream("playback", workload.CBRSpec(1024*units.Kbps)),
		stream("camera", workload.VBRSpec(512*units.Kbps, 1)),
		stream("backup", workload.VBRSpec(256*units.Kbps, 1)),
		stream("audio", workload.CBRSpec(128*units.Kbps)),
	}
}

// mix64 is the splitmix64 finaliser, used to derive independent seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// caseSeed is the base seed of case ci in batch b; replica i runs with
// caseSeed+i.
func caseSeed(seed uint64, b, ci int) uint64 {
	return mix64(mix64(seed) ^ uint64(b)<<20 ^ uint64(ci))
}

// checkStats reports a conservation violation in one replica's record: the
// per-state residencies must sum to the simulated time, which must cover
// the configured duration.
func checkStats(st *sim.Stats, want units.Duration) error {
	var total units.Duration
	for _, d := range st.StateTime {
		total = total.Add(d)
	}
	simulated := st.SimulatedTime.Seconds()
	if math.Abs(total.Seconds()-simulated) > 1e-9*math.Max(1, simulated) {
		return fmt.Errorf("state times sum to %.12g s, simulated time is %.12g s", total.Seconds(), simulated)
	}
	if simulated < want.Seconds()*(1-1e-12) {
		return fmt.Errorf("simulated %.12g s of the configured %.12g s", simulated, want.Seconds())
	}
	return nil
}

// batchTally is what one batch ran.
type batchTally struct {
	replicas int
	failed   int
	// wall and cpu hold each case's wall time and process CPU time, in
	// seconds, in case order.
	wall, cpu []float64
}

// runBatch runs batch b through the replica runners, checks every replica
// and, when digest is non-nil, feeds each replica's statistics into it.
func runBatch(ctx context.Context, workers int, cases []simCase, seed uint64, b int, digest hash.Hash, m *measurement) batchTally {
	var t batchTally
	for ci, c := range cases {
		base := caseSeed(seed, b, ci)
		t.replicas += c.replicas
		var records []*sim.Stats
		var err error
		start, cpu0 := time.Now(), processCPU()
		if c.isMulti {
			var ms []*sim.MultiStats
			ms, err = sim.RunMultiReplicas(ctx, workers, c.multi, base, c.replicas)
			for _, s := range ms {
				records = append(records, &s.Device)
				writeDigest(digest, s)
			}
		} else {
			records, err = sim.RunReplicas(ctx, workers, c.single, base, c.replicas)
			for _, s := range records {
				writeDigest(digest, s)
			}
		}
		t.wall = append(t.wall, since(start))
		t.cpu = append(t.cpu, processCPU()-cpu0)
		if err != nil {
			m.problem("batch %d %s: %v", b, c.name, err)
			t.failed += c.replicas
			continue
		}
		for i, st := range records {
			if err := checkStats(st, c.duration()); err != nil {
				m.problem("batch %d %s replica %d: %v", b, c.name, i, err)
				t.failed++
			}
		}
	}
	return t
}

// writeDigest feeds the compact JSON of v into h (a nil h is skipped).
// encoding/json writes each float64 in its shortest round-trip form, so
// equal encodings mean bit-identical statistics.
func writeDigest(h hash.Hash, v any) {
	if h == nil {
		return
	}
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err) // statistics records are plain numbers and strings
	}
	h.Write(blob)
}

// buildCase builds and validates one simulator for c, as a researcher's
// study does before it runs.
func buildCase(c simCase) error {
	if c.isMulti {
		cfg := c.multi
		cfg.Streams = append([]sim.MultiStream(nil), c.multi.Streams...)
		_, err := sim.NewMulti(cfg)
		return err
	}
	_, err := sim.New(c.single)
	return err
}

// simSetup collects sim-batch's set-up samples: every case's simulator
// built and validated, each case timed on its own.
type simSetup struct {
	cases []simCase
	// cpu and wall hold each case's process CPU time and wall time per
	// set-up, in seconds.
	cpu, wall [][]float64
}

func newSimSetup(cases []simCase) *simSetup {
	return &simSetup{cases: cases, cpu: make([][]float64, len(cases)), wall: make([][]float64, len(cases))}
}

// rep sets up once. The heap is collected before, so every set-up starts
// from the same state, and returned to the OS after, so the next batch
// inherits neither garbage nor resident memory from it.
// Nothing else runs meanwhile, so the process CPU time is the set-up's own,
// the garbage collector's share included.
func (s *simSetup) rep() error {
	runtime.GC()
	for ci, c := range s.cases {
		start, cpu0 := time.Now(), processCPU()
		if err := buildCase(c); err != nil {
			return fmt.Errorf("set up %s: %w", c.name, err)
		}
		s.cpu[ci] = append(s.cpu[ci], processCPU()-cpu0)
		s.wall[ci] = append(s.wall[ci], since(start))
	}
	debug.FreeOSMemory()
	return nil
}

// reps returns how many set-ups were timed.
func (s *simSetup) reps() int { return len(s.cpu[0]) }

// seconds is a typical set-up: the sum over cases of each case's median CPU
// time, or of its median wall time when wall is set. Set-up builds one
// simulator at a time, so on an idle machine the two agree; on a shared
// virtual machine the hypervisor and the memory pressure of other guests
// stretch the wall time of identical set-ups by a third between runs,
// while the CPU time they take moves by a few percent.
func (s *simSetup) seconds(wall bool) float64 {
	samples := s.cpu
	if wall {
		samples = s.wall
	}
	total := 0.0
	for _, times := range samples {
		total += median(times)
	}
	return total
}

// runSimBatch measures the sim-batch workload.
func runSimBatch(o options, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	cases := simCases()
	workers := runtime.NumCPU()
	if tr != nil {
		return m, traceSimBatch(o, tr, cases, workers, m)
	}

	ctx := context.Background()
	clock0, err := readCPUClock()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	setup := newSimSetup(cases)
	walls := make([][]float64, len(cases))
	cpus := make([][]float64, len(cases))
	var peaks []float64
	batches := 0
	for b := 0; b == 0 || time.Now().Before(deadline); b++ {
		var digest hash.Hash
		if b == 0 {
			digest = sha256.New()
		}
		// Each batch's peak memory is taken on its own, from the resident
		// set the previous set-up left once its heap went back to the OS.
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t := runBatch(ctx, workers, cases, o.seed, b, digest, m)
		rss, err := peakRSSMiB("self")
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss)
		m.attempted += t.replicas
		m.failed += t.failed
		for ci := range cases {
			walls[ci] = append(walls[ci], t.wall[ci])
			cpus[ci] = append(cpus[ci], t.cpu[ci])
		}
		batches++
		if digest != nil {
			checkDigest(o.seed, hex.EncodeToString(digest.Sum(nil)), m)
		}
		// One set-up after every batch, so the set-up samples span the run
		// as the batches do.
		if err := setup.rep(); err != nil {
			return nil, err
		}
	}
	for setup.reps() < minSimSetups {
		if err := setup.rep(); err != nil {
			return nil, err
		}
	}
	clock1, err := readCPUClock()
	if err != nil {
		return nil, err
	}
	// A typical batch: each case at its median wall and CPU time, so a
	// burst of interference from outside the benchmark moves one case's
	// sample rather than a whole batch's.
	var wall, cpu, hours float64
	replicas := 0
	for ci, c := range cases {
		wall += median(walls[ci])
		cpu += median(cpus[ci])
		hours += float64(c.replicas) * c.duration().Hours()
		replicas += c.replicas
	}
	// The workers keep every CPU busy, so the batch time scales with the
	// CPU time the hypervisor left the machine: count only that time.
	steal := stealShare(clock0, clock1)
	raw := wall
	wall *= 1 - steal
	// sim_hours_per_s and throughput_rps are one measurement, the typical
	// batch, scaled by constants.
	m.set("sim_hours_per_s", hours/wall)
	m.set("throughput_rps", float64(replicas)/wall)
	m.set("cpu_us_per_req", cpu*1e6/float64(replicas))
	// A batch's peak depends on when the collector happened to run while
	// both workers built a day-long request list, and ranged from 175 to
	// 300 MiB within one run. The highest of a run's peaks is an extreme
	// of that spread; their mean moves far less between runs.
	peak := 0.0
	for _, p := range peaks {
		peak += p / float64(len(peaks))
	}
	m.set("peak_rss_mb", peak)
	m.set("setup_s", setup.seconds(false))
	m.note("sim-batch: %d batches of %d replicas (%.0f simulated hours) on %d workers",
		batches, replicas, hours, workers)
	m.note("sim-batch: a batch took %.1f ms of wall time with %.1f%% of the CPU time stolen by the hypervisor",
		raw*1e3, 100*steal)
	m.note("sim-batch: %d set-ups, each case at its median: %.4g s of CPU time, %.4g s of wall time",
		setup.reps(), setup.seconds(false), setup.seconds(true))
	return m, nil
}

// processCPU returns the user plus system CPU time the benchmark process has
// used, in seconds, at the kernel's full resolution.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// checkDigest prints batch 0's digest and, at the default seed, compares it
// with the committed value.
func checkDigest(seed uint64, got string, m *measurement) {
	m.note("sim-batch: batch 0 statistics digest %s", got)
	if seed == defaultSeed && got != defaultSeedDigest {
		m.problem("batch 0 statistics digest %s, want %s", got, defaultSeedDigest)
	}
}

// traceSimBatch replays batch 0 with spans around every build, reset and
// run, then probes the workload generators on the same seeds, and reports
// the per-layer metrics. Untraced and traced passes alternate for the run's
// seconds (two of each at least); their wall times give the tracing
// overhead. Times cover every traced pass; counts come from the first, so
// they repeat exactly for a seed.
func traceSimBatch(o options, tr *tracer, cases []simCase, workers int, m *measurement) error {
	ctx := context.Background()
	digest := sha256.New()
	t := runBatch(ctx, workers, cases, o.seed, 0, digest, m)
	m.attempted += t.replicas
	m.failed += t.failed
	want := hex.EncodeToString(digest.Sum(nil))
	checkDigest(o.seed, want, m)

	var tally, timed simTally
	var busy, capacity float64
	var tasks uint64
	walls := map[bool][]float64{}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for r := 0; r < 4 || time.Now().Before(deadline); r++ {
		// Alternate untraced and traced passes so drift hits both alike.
		traced := r%2 == 1
		pass := (*tracer)(nil)
		if traced {
			pass = tr
		}
		digest := sha256.New()
		var t simTally
		var wall float64
		pool0 := parallel.PoolTotals().TasksExecuted
		for ci, c := range cases {
			b, w, err := tracedCase(ctx, pass, workers, c, caseSeed(o.seed, 0, ci), digest, &t)
			if err != nil {
				return fmt.Errorf("replay %s: %w", c.name, err)
			}
			wall += w
			if traced {
				busy += b
				capacity += w * float64(workers)
			}
		}
		walls[traced] = append(walls[traced], wall)
		m.attempted += t.replicas
		if got := hex.EncodeToString(digest.Sum(nil)); got != want {
			m.problem("replay digest %s differs from the replica runners' %s", got, want)
		}
		if traced {
			timed.add(t)
		}
		if traced && tally.replicas == 0 {
			tally = t
			tasks = parallel.PoolTotals().TasksExecuted - pool0
		}
	}

	// Generator probes, sequential and outside the pools: the best-effort
	// request list and the video frame trace of every replica, regenerated
	// from the replica seeds the runs above used.
	var buf []workload.BestEffortRequest
	for ci, c := range cases {
		base := caseSeed(o.seed, 0, ci)
		for i := 0; i < c.replicas; i++ {
			seed := base + uint64(i)
			be := c.bestEffort()
			be.Seed = seed
			if err := probeBestEffort(tr, 0, be, c.duration(), &buf, &tally); err != nil {
				return err
			}
			if !c.isMulti && c.single.Spec.Kind == workload.SpecVideo {
				if err := probeVideo(tr, 0, c.single.Spec.Rate, seed, c.duration(), &tally); err != nil {
					return err
				}
			}
		}
	}

	self := tr.selfTimes()
	tally.report(self, timed, m)
	m.set("parallel.busy_share", busy/capacity)
	// A replica is this workload's request.
	m.set("pool.tasks_per_req", float64(tasks)/float64(tally.replicas))
	m.set("engine.steps_per_req", float64(tally.steps)/float64(tally.replicas))
	m.set("trace.overhead_pct", (median(walls[true])/median(walls[false])-1)*100)
	for _, name := range []string{
		"service.decode_us", "service.bytes_hit_us", "service.bytes_miss_us", "service.handler_us",
		"net.overhead_us", "explore.point_us", "cache.hit_ratio", "cache.evictions_per_req",
		"http.shed", "http.p50_ms", "http.p99_ms", "http.p99_samples", "loadgen.lag_p99_ms",
	} {
		// This workload never reaches the service, cache or HTTP layers.
		m.set(name, 0)
	}
	return nil
}

// tracedCase runs one case's replicas on the worker pool the way
// sim.RunReplicas and sim.RunMultiReplicas do: a worker's first replica
// builds its simulator from the configuration reseeded for that replica,
// later ones reset it. A span per replica covers the build or the reset and
// the run. It returns the replica span time and the pool's wall time.
func tracedCase(ctx context.Context, tr *tracer, workers int, c simCase, base uint64, digest hash.Hash, t *simTally) (busy, wall float64, err error) {
	type slot struct {
		single *sim.Simulator
		multi  *sim.MultiSimulator
	}
	slots := make([]slot, parallel.EffectiveWorkers(workers, c.replicas))
	built := make([]bool, c.replicas)
	spans := make([]time.Duration, c.replicas)
	start := time.Now()
	records, err := parallel.MapWorkers(ctx, workers, c.replicas, func(_ context.Context, w, i int) (any, error) {
		rs := tr.begin(0)
		s := &slots[w]
		seed := base + uint64(i)
		built[i] = s.single == nil && s.multi == nil
		var out any
		var err error
		if c.isMulti {
			build := func() (err error) {
				s.multi, err = sim.NewMulti(reseedMulti(c.multi, seed))
				return err
			}
			out, err = prepareRun(tr, rs.id, built[i], build, func() error { return s.multi.Reset(seed) }, func() (*sim.MultiStats, error) {
				return s.multi.Run()
			})
		} else {
			build := func() (err error) {
				s.single, err = sim.New(reseedSingle(c.single, seed))
				return err
			}
			out, err = prepareRun(tr, rs.id, built[i], build, func() error { return s.single.Reset(seed) }, func() (*sim.Stats, error) {
				st, err := s.single.Run()
				if err != nil {
					return nil, err
				}
				cp := *st // the next reset wipes the simulator's own record
				return &cp, nil
			})
		}
		spans[i] = tr.finish(rs, "parallel.replica")
		return out, err
	})
	wall = since(start)
	if err != nil {
		return 0, 0, err
	}
	for i, rec := range records {
		writeDigest(digest, rec)
		dev, ok := rec.(*sim.Stats)
		if ms, isMulti := rec.(*sim.MultiStats); isMulti {
			dev, ok = &ms.Device, true
		}
		if !ok {
			return 0, 0, fmt.Errorf("replica %d: unexpected record %T", i, rec)
		}
		if err := checkStats(dev, c.duration()); err != nil {
			return 0, 0, fmt.Errorf("replica %d: %w", i, err)
		}
		t.addRun(dev, built[i])
		busy += spans[i].Seconds()
	}
	return busy, wall, nil
}

// reseedSingle applies the replica seed to every stochastic input of cfg,
// as sim.RunReplicas and Simulator.Reset do. The replay's digest check
// fails if the two conventions ever part.
func reseedSingle(cfg sim.Config, seed uint64) sim.Config {
	cfg.Seed = seed
	cfg.Spec.Seed = seed
	cfg.BestEffort.Seed = seed
	return cfg
}

// reseedMulti applies the replica seed as sim.RunMultiReplicas and
// MultiSimulator.Reset do: stream j draws from seed ^ ((j+1) · golden
// ratio), the best-effort process from the seed itself. The streams are
// copied, so cfg's slice is never touched.
func reseedMulti(cfg sim.MultiConfig, seed uint64) sim.MultiConfig {
	cfg.Seed = seed
	cfg.Streams = append([]sim.MultiStream(nil), cfg.Streams...)
	for j := range cfg.Streams {
		cfg.Streams[j].Spec.Seed = seed ^ (uint64(j+1) * 0x9e3779b97f4a7c15)
	}
	cfg.BestEffort.Seed = seed
	return cfg
}

// prepareRun readies a simulator for one replica and runs it, with a span
// around each call: "sim.new" when fresh builds it, "sim.reset" otherwise,
// then "sim.run".
func prepareRun[T any](tr *tracer, parent int, fresh bool, build, reset func() error, run func() (T, error)) (T, error) {
	var zero T
	ready, name := reset, "sim.reset"
	if fresh {
		ready, name = build, "sim.new"
	}
	rs := tr.begin(parent)
	err := ready()
	tr.finish(rs, name)
	if err != nil {
		return zero, err
	}
	ru := tr.begin(parent)
	out, err := run()
	tr.finish(ru, "sim.run")
	return out, err
}

// simTally accumulates the counts the sim and workload probes observed.
type simTally struct {
	replicas     int
	replicaHours float64
	// newHours and resetHours split replicaHours by how each replica's
	// simulator was readied: built fresh, or reset.
	newHours   float64
	resetHours float64
	cycles     int
	steps      int
	beRequests int
	beHours    float64
	videoHours float64
}

// addRun counts one finished replica whose simulator was built fresh or
// reset.
func (t *simTally) addRun(st *sim.Stats, fresh bool) {
	hours := st.SimulatedTime.Hours()
	t.replicas++
	t.replicaHours += hours
	if fresh {
		t.newHours += hours
	} else {
		t.resetHours += hours
	}
	t.cycles += st.RefillCycles
	t.steps += st.Steps
}

// add counts every replica of u as well.
func (t *simTally) add(u simTally) {
	t.replicas += u.replicas
	t.replicaHours += u.replicaHours
	t.newHours += u.newHours
	t.resetHours += u.resetHours
	t.cycles += u.cycles
	t.steps += u.steps
}

// report derives the workload, sim and engine metrics from the spans' self
// times. timed counts every replica the sim spans covered; the counts come
// from t, which covers one pass, so they repeat exactly for a seed.
func (t *simTally) report(self map[string]*layerTime, timed simTally, m *measurement) {
	perHour := func(name string, hours float64) float64 {
		lt := self[name]
		if lt == nil || hours == 0 {
			return 0
		}
		return lt.Self.Seconds() * 1e3 / hours
	}
	m.set("workload.be_generate_ms", perHour("workload.be_generate", t.beHours))
	m.set("workload.video_trace_ms", perHour("workload.video_trace", t.videoHours))
	m.set("sim.new_ms", perHour("sim.new", timed.newHours))
	m.set("sim.reset_ms", perHour("sim.reset", timed.resetHours))
	m.set("sim.run_ms", perHour("sim.run", timed.replicaHours))
	ns := 0.0
	if lt := self["sim.run"]; lt != nil && timed.cycles > 0 {
		ns = float64(lt.Self.Nanoseconds()) / float64(timed.cycles)
	}
	m.set("engine.ns_per_cycle", ns)
	ratio := func(n int, d float64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / d
	}
	m.set("engine.cycles_per_hour", ratio(t.cycles, t.replicaHours))
	m.set("workload.be_requests_per_hour", ratio(t.beRequests, t.beHours))
}

// probeBestEffort regenerates one best-effort request list into buf under a
// span.
func probeBestEffort(tr *tracer, parent int, be workload.BestEffortProcess, horizon units.Duration, buf *[]workload.BestEffortRequest, t *simTally) error {
	if be.TargetFraction <= 0 {
		return nil
	}
	s := tr.begin(parent)
	out, err := be.AppendRequests((*buf)[:0], horizon)
	tr.finish(s, "workload.be_generate")
	if err != nil {
		return err
	}
	*buf = out
	t.beRequests += len(out)
	t.beHours += horizon.Hours()
	return nil
}

// probeVideo generates one video frame trace under a span, over the horizon
// the simulator itself generates (the run length, capped at
// workload.MaxTraceHorizon).
func probeVideo(tr *tracer, parent int, rate units.BitRate, seed uint64, duration units.Duration, t *simTally) error {
	horizon := min(duration, workload.MaxTraceHorizon)
	s := tr.begin(parent)
	_, err := workload.NewVideoStream(rate, seed).GenerateTrace(horizon)
	tr.finish(s, "workload.video_trace")
	if err != nil {
		return err
	}
	t.videoHours += horizon.Hours()
	return nil
}

// defaultDevice is the Table I device every generated request simulates.
var defaultDevice = device.DefaultMEMS()

// probeSim runs the simulation behind r, if it has one, as the traced
// replay's stand-in for the daemon's replica runner: the best-effort list
// and the video trace are generated under their own spans, then a
// simulator is built for the request's seed and run, as the runner does for
// a worker's first replica.
func probeSim(tr *tracer, r *request, buf *[]workload.BestEffortRequest, t *simTally) error {
	switch {
	case r.single != nil:
		cfg := reseedSingle(*r.single, r.seed)
		if err := probeBestEffort(tr, 0, cfg.BestEffort, cfg.Duration, buf, t); err != nil {
			return err
		}
		if cfg.Spec.Kind == workload.SpecVideo {
			if err := probeVideo(tr, 0, cfg.Spec.Rate, r.seed, cfg.Duration, t); err != nil {
				return err
			}
		}
		var s *sim.Simulator
		st, err := prepareRun(tr, 0, true, func() (err error) {
			s, err = sim.New(cfg)
			return err
		}, nil, func() (*sim.Stats, error) { return s.Run() })
		if err != nil {
			return fmt.Errorf("probe %s: %w", r.path, err)
		}
		t.addRun(st, true)
	case r.multi != nil:
		cfg := reseedMulti(*r.multi, r.seed)
		if err := probeBestEffort(tr, 0, cfg.BestEffort, cfg.Duration, buf, t); err != nil {
			return err
		}
		var s *sim.MultiSimulator
		ms, err := prepareRun(tr, 0, true, func() (err error) {
			s, err = sim.NewMulti(cfg)
			return err
		}, nil, func() (*sim.MultiStats, error) { return s.Run() })
		if err != nil {
			return fmt.Errorf("probe %s: %w", r.path, err)
		}
		t.addRun(&ms.Device, true)
	}
	return nil
}
