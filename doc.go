// Package memstream reproduces the study "Buffering Implications for the
// Design Space of Streaming MEMS Storage" (Khatib & Abelmann, DATE 2011) as a
// reusable Go library.
//
// MEMS probe-storage devices promise very dense, very low-power secondary
// storage for mobile streaming systems. Because their mechanical overheads
// are tiny, the streaming buffer they need for energy efficiency alone is
// also tiny — but a tiny buffer forces a small storage sector, which wastes
// capacity on per-subsector synchronisation bits, and it forces the device to
// seek and shut down so often that the suspension springs and the write tips
// wear out. This package models all three effects as functions of the buffer
// size, inverts them, and answers the design question of the paper: how large
// must the buffer be to reach a given energy saving E, capacity utilisation C
// and lifetime L, and when is no buffer size enough?
//
// # Quick start
//
//	dev := memstream.DefaultDevice()
//	model, err := memstream.New(dev, 1024*memstream.Kbps)
//	if err != nil { ... }
//	dim, err := model.Dimension(memstream.Goal{
//		EnergySaving:        0.70,
//		CapacityUtilisation: 0.88,
//		Lifetime:            7 * memstream.Year,
//	})
//	fmt.Println(dim.Buffer, dim.Dominant)
//
// # Concurrency
//
// The compute-heavy top-level calls fan their independent work units out
// over a bounded worker pool (internal/parallel) sized to one worker per CPU
// (runtime.GOMAXPROCS):
//
//   - Explore and ExploreWithOptions dimension each streaming rate on its
//     own worker, each worker owning its model;
//   - SweepBuffer, GenerateFigure2 and GenerateFigure3 evaluate their curve
//     points concurrently;
//   - BreakEvenTable inverts the MEMS and disk break-even points per rate
//     concurrently, and Ablations evaluates the ablated model variants
//     concurrently;
//   - SimulateBatch and SimulateMultiBatch run many discrete-event
//     simulations at once. A batch of seed-varied replicas of one
//     configuration — the shape every replicated study produces — is
//     validated once, and each worker reuses a single simulator across the
//     replicas it claims, resetting its engine core, demand pattern and
//     best-effort arrival cursor in place instead of rebuilding them; mixed
//     batches fall back to one simulator per entry. Both paths return
//     bit-identical results.
//
// Every parallel path is deterministic: results are returned in input order
// and are identical — byte-identical for the rendered figures — to the
// sequential path. To bound the worker count (or to cancel a long sweep),
// use the Context variants (ExploreContext, SweepBufferContext,
// GenerateFigure2Context, GenerateFigure3Context, SimulateBatchContext) and
// pass the desired worker bound: 0 means one worker per CPU, 1 forces the
// sequential path. Models, devices and statistics are plain values; none of
// the exported calls mutate shared state, so independent calls may also be
// issued from multiple goroutines.
//
// # Simulation engine
//
// The discrete-event simulator is built on one event-driven scheduling core
// (internal/engine): K stream buffers drain concurrently while the shared
// device wakes, services them under a scheduling policy and shuts down
// again. A single-stream run is literally the K=1 case of that core — the
// single- and multi-stream simulators drive the same wake/refill/shutdown
// machinery through one cycle loop and differ only in a handful of declared
// behavioural knobs (the single-stream top-off refill, its ECC error model,
// its full-buffer DRAM charge), so the two paths cannot drift apart. Time
// advances by next-event stepping — a drain or refill integration step ends
// at the earliest of the target buffer level, the run deadline, and the next
// demand change announced by the rate source — so piecewise-constant demand
// (CBR, VBR segments, per-frame video traces) is integrated exactly, and
// VBR/video runs take steps proportional to the number of rate changes
// instead of fixed 20-millisecond slices.
//
// The engine accounts per-state time and energy against a pluggable device
// backend (power per cycle state, positioning and shutdown transitions,
// media rate, write-wear inflation). Two backends ship with the library:
// the Table I MEMS device and the 1.8-inch disk baseline, which makes the
// paper's Section III-A.1 break-even comparison executable end to end —
// examples/diskcomparison bisects the simulated spin-down saving and
// reproduces DiskBreakEvenBuffer within a percent.
//
// Picking a backend:
//
//   - Library: leave SimConfig.Backend nil for the MEMS device in
//     SimConfig.Device, or assign MEMSBackend/DiskBackend (via
//     DefaultSimConfigFor or DefaultDiskSimConfig); SimulateDisk runs a
//     configuration against a drive directly.
//   - CLI: memssim -device mems|improved|disk (-improved remains as a
//     deprecated alias for -device improved; unknown names are usage
//     errors).
//   - HTTP API: POST /v1/simulate accepts "device":{"name":...} with
//     "default"/"mems", "improved" or "disk"; the backend is part of the
//     cache fingerprint, and disk runs omit the MEMS-specific wear
//     projections.
//
// SimStats exposes per-state residency and energy through StateTime and
// StateEnergy, indexed by the re-exported power states (StateSeek,
// StateReadWrite, StateShutdown, StateStandby, StateIdle, StateBestEffort).
//
// # Workloads
//
// Stream demand is described by a typed spec (SimStreamSpec, assigned to
// SimConfig.Spec) selecting one of four workload kinds:
//
//   - "cbr" (CBRSpec): constant bit rate — the paper's Table I stream.
//   - "vbr" (VBRSpec): segment-wise variable bit rate, two-second segments
//     varying ±30 % around the nominal rate.
//   - "video" (VideoSpec): an MPEG-like frame-accurate trace generated from
//     a GOP structure (frame rate, GOP length, anchor distance, I/P/B
//     weights, jitter). The trace horizon follows the simulated duration,
//     capped at MaxTraceHorizon; longer runs wrap around and replay the
//     trace explicitly.
//   - "trace" (TraceSpec): a user-supplied frame trace, replayed with
//     wrap-around beyond its last frame.
//
// User traces travel in a one-frame-per-line text format read by
// ParseFrameTrace and written by WriteFrameTrace:
//
//	# comment
//	<timestamp> <size> [class]
//	0      6250bit  I
//	40ms   4000bit
//	0.08   3000bit  B
//
// Timestamps accept the duration grammar (bare numbers are seconds), sizes
// the size grammar (bare numbers are bytes), and the optional class is I, P
// or B (default P). Timestamps must be strictly increasing; traces are
// normalized to start at time zero.
//
// The same kinds are exposed end to end: memssim selects them with
// -stream cbr|vbr|video|trace (-trace loads a trace file, -dump-trace saves
// the replayed trace), and POST /v1/simulate accepts "stream": "video" with
// an optional "video" parameter object and "stream": "trace" with inline
// "frames": [{"timestamp", "size", "class"}]. Video parameters are resolved
// and traces normalized before fingerprinting, so equivalent spellings share
// one cache entry. Beyond underrun steps, SimStats reports the playback
// metrics a player would surface: StartupDelay (positioning plus one buffer
// fill at the media rate), RebufferEpisodes (distinct stalls) and
// RebufferTime (total stalled time).
//
// # Shared-device scheduling
//
// The multi-stream analysis (SharedSystem, the generalised Fig. 1 cycle in
// internal/multistream) has a simulated counterpart: SimulateMulti runs
// several concurrent streams on one device through the same unified
// scheduling core the single-stream simulator drives at K=1. Each stream is
// a SimMultiStream — any workload spec (CBR, VBR, video, trace) plus its own
// dedicated buffer and an optional Priority class — and all buffers drain
// concurrently while the shared device sleeps. The device wakes when any
// buffer falls to its wake level (provisioned to survive a full service
// round at peak demand; at K=1 this reduces exactly to the single-stream
// positioning rule), repositions to each stream's region in turn — paying
// the backend's positioning transition per stream, exactly like the closed
// form's inter-stream seeks — refills that stream at the media rate, serves
// the best-effort backlog and shuts down again.
//
// Three scheduling policies order the service round (SchedulingPolicy,
// SimMultiConfig.Policy):
//
//   - PolicyRoundRobin (the default): every wake-up services all streams in
//     declaration order — the paper's gated super-cycle, and the policy the
//     closed-form multistream.At models.
//   - PolicyMostUrgent: an EDF-like variant that refills the buffer closest
//     to starving first.
//   - PolicyPriority: services higher SimMultiStream.Priority classes first,
//     most urgent first within a class — a recording stream can be guaranteed
//     its refill before opportunistic playback streams.
//
// SimulateMulti returns a SimMultiStats: aggregate device statistics
// (wake-ups, per-state time and energy, DRAM energy) plus one record per
// stream — streamed bits, refills, underruns, playback metrics, and the
// seek/transfer energy attributed to servicing that stream, which
// EnergyShare turns into per-stream energy fractions. SharedSystem.
// SimulatePlan bridges the two formulations: it simulates a closed-form
// Plan's buffers directly, and the multistream tests hold the simulated
// per-cycle energy within 5 % of At for mixed read/write stream sets.
//
// The same path is exposed end to end: memssim accepts repeatable -streams
// specs ("-streams name=playback,rate=1024kbps,buffer=128KiB,write=0,prio=1")
// with -policy rr|edf|prio, and POST /v1/multisim takes {"policy", "streams":
// [{"name", "stream", "rate", "buffer", "write_fraction", "priority",
// "video"}], "duration", "best_effort", "seed", "replicas"} with the resolved
// policy and per-stream parameters fingerprinted into the result cache.
//
// # Performance
//
// The engine's steady state is allocation-free: once a simulator is warm, a
// reset-and-rerun iteration — a full simulated hour of CBR or VBR streaming,
// including regenerating the demand pattern and best-effort trace for the
// next seed — performs zero heap allocations, and a shared-device iteration
// allocates only its two output records. TestSteadyStateAllocs in
// internal/sim guards this with testing.AllocsPerRun, and the batch and
// replica APIs exploit it through per-worker simulator reuse (see
// Concurrency above) — the service layer's /v1/simulate and /v1/multisim
// replica loops validate one prototype configuration and rewind a pooled
// simulator per worker instead of building one per replica.
//
// cmd/memsbench tracks the numbers across pull requests:
//
//	go run ./cmd/memsbench                        # human-readable table
//	go run ./cmd/memsbench -format json -out BENCH_9.json
//	go run ./cmd/memsbench -check BENCH_9.json    # CI regression gate
//	go run ./cmd/memsbench -compare BENCH_8.json BENCH_9.json
//
// Each scenario (cbr-steady, vbr-mobile, video-abr, trace-replay,
// multi-4stream, service-warm) reports ns/op, B/op, allocs/op and simulated
// hours per wall-clock second. The committed baseline lives in
// BENCH_<pr>.json at the repository root — one file per PR that moves the
// numbers, forming a perf trajectory — and CI reruns the scenarios against
// the committed file: allocation counts may never exceed the baseline
// (exact, no tolerance), timing only within a generous factor that absorbs
// hardware differences. Representative numbers from the PR 8 baseline
// machine: a simulated CBR hour in ~0.5 ms (≈2000 simulated hours per wall
// second) at 0 allocs/op, VBR ≈1800 h/s at 0 allocs/op, frame-accurate
// video ≈290 h/s with the full trace regenerated per replica, and the
// four-stream shared device ≈150 h/s at 2 allocs/op.
//
// # Serving
//
// The same questions are served as long-lived API calls through NewService,
// a cache-backed evaluation layer over the model, sweep, simulation and
// shared-device engines. A Service memoizes answers in a sharded, bounded
// LRU keyed on the canonicalized request, so identical questions — spelled
// either way ("1024 kbps" or 1024000) and asked from any number of
// goroutines — are computed once and answered byte-identically thereafter:
//
//	svc := memstream.NewService(memstream.ServiceConfig{Timeout: 30 * time.Second})
//	resp, err := svc.Dimension(ctx, memstream.DimensionRequest{
//		Rate: "1024 kbps",
//		Goal: memstream.GoalSpec{EnergySaving: 0.7, CapacityUtilisation: 0.88, Lifetime: "7 years"},
//	})
//
// Service.Handler exposes the same layer over HTTP; cmd/memsd is the
// ready-made daemon around it:
//
//	memsd [-addr :8377] [-cache-entries 4096] [-cache-shards 16] [-workers 0]
//	      [-timeout 30s] [-debug-addr addr] [-max-inflight 256] [-max-queue 512]
//	      [-queue-wait 1s] [-rate-limit 0] [-rate-burst 0] [-rate-clients 0]
//
// serving POST /v1/dimension, /v1/sweep, /v1/simulate, /v1/multisim,
// /v1/breakeven and /v1/multistream (JSON bodies; unit strings, or bare numbers
// read as bit/s, bytes or seconds), GET /healthz for liveness (status, uptime
// and build version), GET /statsz for cache hit/miss/eviction, per-shard
// occupancy, uptime and in-flight counters, and GET /metricsz for the
// Prometheus exposition, with graceful shutdown on SIGINT/SIGTERM:
//
//	curl -s localhost:8377/v1/dimension -d '{"rate":"1024 kbps",
//	  "goal":{"energy_saving":0.7,"capacity_utilisation":0.88,"lifetime":"7 years"}}'
//	curl -s localhost:8377/v1/sweep -d '{"goal":{"energy_saving":0.7,
//	  "capacity_utilisation":0.88,"lifetime":"7 years"},
//	  "min_rate":"32 kbps","max_rate":"4096 kbps","points":64}'
//	curl -s localhost:8377/statsz
//
// Handlers apply a per-request compute deadline and clamp per-request worker
// bounds; worker bounds never change an answer (only its latency), so they
// are excluded from the cache key.
//
// The /v1 endpoints sit behind two traffic controls. An admission controller
// bounds the requests in flight (-max-inflight) and queues a short overflow
// (-max-queue) for at most -queue-wait; arrivals beyond the queue, or queued
// longer than the wait, are shed with 429, a Retry-After header computed from
// the endpoint's observed p50 latency and the queue depth, and a strict-JSON
// body mirroring the hint in retry_after_seconds. A per-client token bucket
// (-rate-limit requests per second, burst -rate-burst) keys clients on
// X-API-Key when present, client IP otherwise, in an LRU-bounded table of
// -rate-clients entries so hostile key churn cannot grow memory; over-limit
// requests get the same 429 contract with the exact token-deficit wait.
// /healthz, /statsz and /metricsz bypass both controls. Both are off by
// default in the library (zero ServiceConfig); cmd/memsd enables admission
// control by default and leaves rate limiting opt-in.
//
// cmd/memsload drives a running daemon for interactive load tests and CI
// gates: a configurable request rate, concurrency, duration and endpoint mix,
// client-side p50/p99 per endpoint, and a final /metricsz scrape so budgets
// can be asserted against the server's own counters and histograms:
//
//	memsload -addr http://localhost:8377 -rps 200 -duration 30s \
//	  -mix dimension=4,breakeven=2,simulate=1 -format json \
//	  -max-p99 250ms -max-5xx 0 -max-transport 0
//
// # Observability
//
// GET /metricsz serves the service's counters, gauges and latency histograms
// in the Prometheus text exposition format (version 0.0.4), implemented by a
// dependency-free registry in internal/metrics. Metric names follow the
// Prometheus conventions — a memsd_ namespace prefix, _total on counters,
// base units (seconds) with the unit in the name — and label values are the
// only per-series variance:
//
//   - memsd_http_requests_total{endpoint,code}: requests by endpoint and
//     status class ("2xx", "4xx", "5xx").
//   - memsd_http_request_duration_seconds{endpoint}: per-endpoint latency
//     histograms; p50/p99 come from the cumulative le buckets, and
//     Service.LatencyQuantile derives them in-process.
//   - memsd_http_in_flight_requests, memsd_compute_in_flight: gauges of
//     requests inside the handler and inside the compute section.
//   - memsd_http_deadline_aborts_total: requests lost to the compute
//     deadline.
//   - memsd_http_requests_shed_total, memsd_http_inflight_limit,
//     memsd_http_queue_depth: admission control — requests refused because
//     the wait queue was full or the queue wait expired, the configured
//     in-flight bound (0 when disabled) and the live queue occupancy.
//   - memsd_http_rate_limited_total{reason}: per-client rate-limit refusals,
//     by client-key kind ("ip" or "api_key").
//   - memsd_http_body_too_large_total: requests rejected with 413 for an
//     oversized body (a malformed request, not load shedding).
//   - memsd_cache_hits_total, memsd_cache_misses_total,
//     memsd_cache_evictions_total, memsd_cache_entries, memsd_cache_capacity,
//     memsd_cache_shard_entries{shard}: the result cache, per shard.
//   - memsd_pool_tasks_executed_total, memsd_pool_workers_started_total,
//     memsd_pool_workers_busy: the worker pool, folded in at worker exit so
//     the hot loop stays uninstrumented.
//   - memsd_sim_replicas_total, memsd_engine_runs_total,
//     memsd_engine_steps_total, memsd_engine_simulated_hours: simulation
//     volume, recorded once per completed run.
//
// The exposition is deterministic: families and series are emitted in sorted
// order, scraping does not itself count as traffic, and two scrapes of an
// idle service are byte-identical. Engine, pool and simulator totals are
// process-wide and mirrored into the registry at scrape time; everything
// else is per-Service.
//
// AccessLog wraps any handler with one structured log/slog record per
// request — request ID (X-Request-ID honored, generated otherwise, echoed on
// the response), method, endpoint, status, bytes, duration, cache hit/miss
// and the worker bound used. cmd/memsd wires it to stderr, and its
// -debug-addr flag opens a private listener serving net/http/pprof under
// /debug/pprof/ plus the same /metricsz, drained by the same graceful
// shutdown. A scrape config needs nothing special:
//
//	scrape_configs:
//	  - job_name: memsd
//	    metrics_path: /metricsz
//	    static_configs: [{targets: ["localhost:8377"]}]
//
// # Structure
//
// The root package is a facade over the internal packages:
//
//   - internal/units: physical quantities (sizes, rates, powers, energies)
//   - internal/device: MEMS, 1.8-inch disk and DRAM parameter models
//   - internal/format, internal/ecc, internal/media: formatting, ECC and
//     layout substrates behind the capacity model
//   - internal/energy, internal/lifetime: the forward models (Eqs. 1, 5, 6)
//   - internal/core: the combined model and the inverse buffer dimensioning
//   - internal/explore: design-space sweeps over streaming rates
//   - internal/parallel: the bounded worker pool behind the concurrent paths
//   - internal/engine: the event-driven simulation core and its pluggable
//     device backends (MEMS, 1.8-inch disk)
//   - internal/sim, internal/workload: a discrete-event simulator and its
//     workload generators, used to validate the analytical models
//   - internal/cache, internal/service: the sharded result cache and the
//     dimensioning-as-a-service layer behind NewService and cmd/memsd
//   - internal/report, internal/config: tables, plots and configuration files
//
// The figure generators in this package regenerate every table and figure of
// the paper's evaluation; cmd/memsfigures prints them, and the benchmarks in
// bench_test.go time them.
//
// # Static analysis
//
// The conventions above are machine-enforced, not just documented. The
// analyzer suite in internal/analysis runs as a go vet tool (cmd/memsvet)
// over the whole tree, and CI fails on any diagnostic — there is no
// suppression mechanism; a finding is fixed, not silenced:
//
//   - unitsafety: arithmetic must not cross internal/units type boundaries
//     raw. Constructing a quantity from a computed float, converting one
//     quantity type into another, multiplying two same-unit values, or
//     applying a magic 1e3/1e6/1e9/1024-style factor to an accessor result
//     are all flagged; the named constructors (units.Kbps.Scale,
//     units.Second.Scale, ...) and accessors (Bytes, MBytes, Kilobits, ...)
//     are the sanctioned crossings.
//   - determinism: the simulation-critical packages (internal/engine,
//     internal/sim, internal/parallel, internal/explore and the figure
//     generators) may not read the wall clock, draw from the global
//     math/rand source, or write results while ranging over a map — the
//     same inputs must yield byte-identical outputs at any worker count.
//   - errprefix: every error escaping an exported function of this package
//     carries the "memstream: " prefix (the wrapErr helper applies it
//     idempotently at the API boundary).
//   - ctxflow: every ...Context variant threads its context, plain-named
//     wrappers delegate to their variant, and internal/service never
//     replaces a request context with context.Background.
//
// Run the suite locally with:
//
//	go build -o /tmp/memsvet ./cmd/memsvet
//	go vet -vettool=/tmp/memsvet ./...
package memstream
