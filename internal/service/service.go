// Package service is the dimensioning-as-a-service layer: typed JSON
// request/response schemas with strict validation, plus HTTP handlers for
//
//	POST /v1/dimension   — buffer dimensioning at one rate
//	POST /v1/sweep       — a Fig. 3 style dimensioning sweep over rates
//	POST /v1/simulate    — discrete-event simulation runs (optionally batched)
//	POST /v1/multisim    — shared-device simulation of several concurrent streams
//	POST /v1/breakeven   — MEMS versus disk break-even buffers at one rate
//	POST /v1/multistream — shared-device dimensioning of a stream mix
//	GET  /healthz        — liveness
//	GET  /statsz         — cache and in-flight counters
//
// Every computation routes through the existing engines (internal/core,
// internal/explore, internal/sim, internal/multistream) on the bounded
// worker pool of internal/parallel, under a per-request context deadline and
// worker bound. Results are memoized in a sharded LRU (internal/cache) keyed
// on a canonicalized fingerprint of the parsed request, so identical
// questions — including concurrent ones, which share a single computation —
// return byte-identical response bodies. Worker bounds never change a
// result, only its latency, so they are excluded from the fingerprint.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"memstream/internal/cache"
	"memstream/internal/core"
	"memstream/internal/device"
	"memstream/internal/energy"
	"memstream/internal/engine"
	"memstream/internal/explore"
	"memstream/internal/lifetime"
	"memstream/internal/multistream"
	"memstream/internal/parallel"
	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// Config parameterises a Service.
type Config struct {
	// CacheEntries bounds the result cache (default cache.DefaultEntries).
	CacheEntries int
	// CacheShards sets the cache shard count (default cache.DefaultShards).
	CacheShards int
	// MaxWorkers caps the per-request worker bound. Zero allows up to one
	// worker per CPU (the engine default).
	MaxWorkers int
	// Timeout is the per-request compute deadline. Zero disables it.
	Timeout time.Duration

	// MaxInFlight bounds how many /v1 requests may execute at once
	// (admission control). Zero disables admission control.
	MaxInFlight int
	// MaxQueue bounds how many /v1 requests may wait for an in-flight slot
	// beyond MaxInFlight; arrivals past the queue bound are shed with a 429
	// and a Retry-After hint. Zero queues nothing: the bound alone decides.
	MaxQueue int
	// QueueWait bounds how long one queued request waits for capacity
	// before being shed (default DefaultQueueWait). Only meaningful with
	// MaxInFlight > 0.
	QueueWait time.Duration

	// RateLimit is the sustained per-client allowance on /v1 endpoints, in
	// requests per second (clients are keyed on X-API-Key when present,
	// client IP otherwise). Zero disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket capacity: the largest instantaneous
	// request batch one client may spend. Zero defaults to the integer
	// ceiling of RateLimit (at least 1).
	RateBurst int
	// RateLimitClients bounds the limiter's client-key table (LRU evicted;
	// default DefaultRateLimitClients), so hostile key churn recycles
	// entries instead of growing memory.
	RateLimitClients int
}

// Service answers dimensioning questions through a shared result cache. It
// is safe for concurrent use; the HTTP handlers and the exported typed
// methods share the same cache, counters and metric registry.
type Service struct {
	cfg      Config
	cache    *cache.Cache
	met      *serviceMetrics
	admit    *admission
	limiter  *rateLimiter
	start    time.Time
	inflight atomic.Int64
	served   atomic.Uint64
	failed   atomic.Uint64
}

// New builds a Service.
func New(cfg Config) *Service {
	met := newServiceMetrics()
	s := &Service{
		cfg:     cfg,
		cache:   cache.New(cfg.CacheEntries, cfg.CacheShards),
		met:     met,
		admit:   newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait, met.queueDepth),
		limiter: newRateLimiter(cfg.RateLimit, cfg.RateBurst, cfg.RateLimitClients),
		start:   time.Now(),
	}
	if cfg.MaxInFlight > 0 {
		met.inflightLimit.Set(float64(cfg.MaxInFlight))
	}
	return s
}

// CacheStats returns a snapshot of the result-cache counters.
func (s *Service) CacheStats() cache.Stats { return s.cache.Stats() }

// Stats is the /statsz payload.
type Stats struct {
	// Cache is the result-cache snapshot.
	Cache cache.Stats `json:"cache"`
	// CacheHitRate is Cache's hit fraction.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// InFlight is the number of requests currently being computed.
	InFlight int64 `json:"in_flight"`
	// Served counts requests answered successfully since start.
	Served uint64 `json:"served"`
	// Failed counts requests that ended in an error since start.
	Failed uint64 `json:"failed"`
	// Shed counts /v1 requests refused by admission control (queue full or
	// queue wait expired) since start.
	Shed uint64 `json:"shed"`
	// RateLimited counts /v1 requests refused by the per-client rate
	// limiter since start.
	RateLimited uint64 `json:"rate_limited"`
	// BodyTooLarge counts requests refused for an oversized body since
	// start.
	BodyTooLarge uint64 `json:"body_too_large"`
	// InFlightLimit is the configured admission bound (0 = unbounded).
	InFlightLimit int `json:"in_flight_limit"`
	// QueueDepth is the number of requests waiting for an in-flight slot.
	QueueDepth int `json:"queue_depth"`
	// RateLimitClients is the limiter key-table occupancy.
	RateLimitClients int `json:"rate_limit_clients"`
	// UptimeSeconds is the time since the Service was built.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	cs := s.cache.Stats()
	return Stats{
		Cache:            cs,
		CacheHitRate:     cs.HitRate(),
		InFlight:         s.inflight.Load(),
		Served:           s.served.Load(),
		Failed:           s.failed.Load(),
		Shed:             s.met.shed.Value(),
		RateLimited:      s.met.rateLimitedTotal(),
		BodyTooLarge:     s.met.bodyTooLarge.Value(),
		InFlightLimit:    s.cfg.MaxInFlight,
		QueueDepth:       int(s.met.queueDepth.Value()),
		RateLimitClients: s.limiter.clients(),
		UptimeSeconds:    time.Since(s.start).Seconds(),
	}
}

// buildVersion returns the module version recorded in the binary's build
// info ("(devel)" for plain go build/test, the module version for installed
// builds), computed once.
func buildVersion() string {
	versionOnce.Do(func() {
		version = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
			version = bi.Main.Version
		}
	})
	return version
}

var (
	versionOnce sync.Once
	version     string
)

// workerBound clamps a request's worker ask against the service cap, or
// rejects a negative ask — siblings like points and replicas are validated
// strictly, so a sign bug should not silently change latency behaviour.
func (s *Service) workerBound(requested int) (int, error) {
	if requested < 0 {
		return 0, invalidf("workers must be non-negative (0 = service default), got %d", requested)
	}
	if s.cfg.MaxWorkers > 0 && (requested == 0 || requested > s.cfg.MaxWorkers) {
		return s.cfg.MaxWorkers, nil
	}
	return requested, nil
}

// effectiveWorkers resolves a zero worker bound to the engine default (one
// per CPU) for observability: the access log reports the bound the
// computation actually ran under.
func effectiveWorkers(workers int) int {
	if workers <= 0 {
		return parallel.DefaultWorkers()
	}
	return workers
}

// begin applies the per-request deadline and bumps the in-flight gauge; the
// returned finish records the outcome and must be called exactly once.
func (s *Service) begin(ctx context.Context) (context.Context, func(err error)) {
	cancel := func() {}
	if s.cfg.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
	}
	s.inflight.Add(1)
	return ctx, func(err error) {
		s.inflight.Add(-1)
		cancel()
		if err != nil {
			s.failed.Add(1)
			if errors.Is(err, context.DeadlineExceeded) {
				s.met.deadlineAborts.Inc()
			}
		} else {
			s.served.Add(1)
		}
	}
}

// fingerprint canonicalizes a parsed, validated request into a cache key.
// The normalized value must marshal deterministically (structs and sorted
// maps only) and must contain every input that can change the result.
func fingerprint(endpoint string, normalized any) (string, error) {
	blob, err := json.Marshal(normalized)
	if err != nil {
		return "", fmt.Errorf("service: fingerprint: %w", err)
	}
	return endpoint + "\x00" + string(blob), nil
}

// memoize runs compute through the shared cache under the request deadline,
// marshaling its result once; hits and single-flight waiters reuse the
// stored bytes, so identical requests get byte-identical bodies.
func (s *Service) memoize(ctx context.Context, key string, compute func(ctx context.Context) (any, error)) ([]byte, error) {
	body, cached, err := s.cache.Do(ctx, key, func() ([]byte, error) {
		result, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(result)
	})
	if err == nil {
		noteCache(ctx, cached)
	}
	return body, err
}

// await runs fn on its own goroutine and abandons it when ctx ends, so
// engines without internal cancellation points still respect the request
// deadline. An abandoned computation finishes in the background (its result
// is discarded); a context that is already dead never starts fn at all, so
// single-flight retries of a timed-out flight cannot pile up orphaned work.
func await[T any](ctx context.Context, fn func() (T, error)) (T, error) {
	type outcome struct {
		v   T
		err error
	}
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, err
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := fn()
		ch <- outcome{v, err}
	}()
	select {
	case out := <-ch:
		return out.v, out.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// dimensionKey is the canonical fingerprint payload of a DimensionRequest.
type dimensionKey struct {
	Device  device.MEMS
	RateBps float64
	Goal    core.Goal
}

// DimensionBytes answers a DimensionRequest with the cached response body.
func (s *Service) DimensionBytes(ctx context.Context, req DimensionRequest) ([]byte, error) {
	ctx, finish := s.begin(ctx)
	var err error
	defer func() { finish(err) }()

	dev, err := req.Device.resolve()
	if err != nil {
		return nil, err
	}
	rate, err := req.Rate.rate("rate")
	if err != nil {
		return nil, err
	}
	goal, err := req.Goal.resolve()
	if err != nil {
		return nil, err
	}
	key, err := fingerprint("dimension", dimensionKey{Device: dev, RateBps: rate.BitsPerSecond(), Goal: goal})
	if err != nil {
		return nil, err
	}
	// A single-rate dimensioning always runs on one worker.
	noteWorkers(ctx, 1)
	var body []byte
	body, err = s.memoize(ctx, key, func(ctx context.Context) (any, error) {
		// A single-rate sweep routes the dimensioning through the same
		// engine path (and worker pool) as /v1/sweep; RunContext already
		// honours cancellation, so no await wrapper is needed.
		sweep, err := explore.RunContext(ctx, explore.Config{Device: dev, Goal: goal, Workers: 1}, []units.BitRate{rate})
		if err != nil {
			return nil, err
		}
		p := sweep.Points[0]
		d := p.Dimensioning
		resp := &DimensionResponse{
			Rate:              rate.String(),
			RateBitsPerSecond: rate.BitsPerSecond(),
			Feasible:          d.Feasible,
			Dominant:          d.Dominant.String(),
			BreakEvenBits:     p.BreakEven.Bits(),
			BreakEven:         p.BreakEven.String(),
			MinimumBufferBits: p.MinimumBuffer.Bits(),
			Requirements:      requirementResults(d),
		}
		if d.Feasible {
			resp.BufferBits = d.Buffer.Bits()
			resp.Buffer = d.Buffer.String()
		}
		return resp, nil
	})
	return body, err
}

// Dimension answers a DimensionRequest through the cache.
func (s *Service) Dimension(ctx context.Context, req DimensionRequest) (*DimensionResponse, error) {
	return typed[DimensionResponse](s.DimensionBytes(ctx, req))
}

// sweepKey is the canonical fingerprint payload of a SweepRequest.
type sweepKey struct {
	Device     device.MEMS
	Goal       core.Goal
	MinRateBps float64
	MaxRateBps float64
	Points     int
}

// SweepBytes answers a SweepRequest with the cached response body.
func (s *Service) SweepBytes(ctx context.Context, req SweepRequest) ([]byte, error) {
	ctx, finish := s.begin(ctx)
	var err error
	defer func() { finish(err) }()

	dev, err := req.Device.resolve()
	if err != nil {
		return nil, err
	}
	goal, err := req.Goal.resolve()
	if err != nil {
		return nil, err
	}
	minRate, err := req.MinRate.rate("min_rate")
	if err != nil {
		return nil, err
	}
	maxRate, err := req.MaxRate.rate("max_rate")
	if err != nil {
		return nil, err
	}
	if maxRate <= minRate {
		err = invalidf("max_rate %v must exceed min_rate %v", maxRate, minRate)
		return nil, err
	}
	if req.Points < 2 || req.Points > MaxSweepPoints {
		err = invalidf("points must be in [2, %d], got %d", MaxSweepPoints, req.Points)
		return nil, err
	}
	workers, err := s.workerBound(req.Workers)
	if err != nil {
		return nil, err
	}
	noteWorkers(ctx, effectiveWorkers(workers))
	key, err := fingerprint("sweep", sweepKey{
		Device:     dev,
		Goal:       goal,
		MinRateBps: minRate.BitsPerSecond(),
		MaxRateBps: maxRate.BitsPerSecond(),
		Points:     req.Points,
	})
	if err != nil {
		return nil, err
	}
	var body []byte
	body, err = s.memoize(ctx, key, func(ctx context.Context) (any, error) {
		rates, err := explore.LogSpace(minRate, maxRate, req.Points)
		if err != nil {
			return nil, err
		}
		sweep, err := explore.RunContext(ctx, explore.Config{Device: dev, Goal: goal, Workers: workers}, rates)
		if err != nil {
			return nil, err
		}
		resp := &SweepResponse{
			Goal:           goal.String(),
			Points:         make([]SweepPointResult, 0, len(sweep.Points)),
			DominanceShare: map[string]float64{},
		}
		for _, p := range sweep.Points {
			d := p.Dimensioning
			pr := SweepPointResult{
				RateBitsPerSecond: p.Rate.BitsPerSecond(),
				Rate:              p.Rate.String(),
				Feasible:          d.Feasible,
				Dominant:          d.Dominant.String(),
				BreakEvenBits:     p.BreakEven.Bits(),
			}
			if d.Feasible {
				pr.BufferBits = d.Buffer.Bits()
				pr.Buffer = d.Buffer.String()
			}
			resp.Points = append(resp.Points, pr)
		}
		for _, r := range sweep.Regimes() {
			resp.Regimes = append(resp.Regimes, RegimeResult{
				MinRate: r.MinRate.String(),
				MaxRate: r.MaxRate.String(),
				Label:   r.Label(),
				Points:  r.Points,
			})
		}
		if limit, ok := sweep.FeasibilityLimit(); ok {
			resp.FeasibilityLimit = limit.String()
		}
		for c, share := range sweep.DominanceShare() {
			resp.DominanceShare[c.String()] = share
		}
		return resp, nil
	})
	return body, err
}

// Sweep answers a SweepRequest through the cache.
func (s *Service) Sweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	return typed[SweepResponse](s.SweepBytes(ctx, req))
}

// simulateKey is the canonical fingerprint payload of a SimulateRequest. The
// backend kind and both device parameter sets are fingerprinted, so a MEMS
// and a disk run of otherwise identical shape can never share a cache entry.
// Video parameters enter fully resolved and trace frames normalized, so
// equivalent spellings (omitted defaults, unit strings, timestamp offsets)
// share an entry.
type simulateKey struct {
	Backend    string
	Device     device.MEMS
	Disk       device.Disk
	RateBps    float64
	BufferBits float64
	DurationS  float64
	Stream     string
	Video      videoKey
	Frames     []traceFrameKey
	BestEffort float64
	Seed       uint64
	Replicas   int
}

// SimulateBytes answers a SimulateRequest with the cached response body.
func (s *Service) SimulateBytes(ctx context.Context, req SimulateRequest) ([]byte, error) {
	ctx, finish := s.begin(ctx)
	var err error
	defer func() { finish(err) }()

	sd, err := req.Device.resolveSim()
	if err != nil {
		return nil, err
	}
	kind := req.Stream
	if kind == "" {
		kind = "cbr"
	}
	switch kind {
	case "cbr", "vbr", "video", "trace":
	default:
		err = invalidf("stream must be \"cbr\", \"vbr\", \"video\" or \"trace\", got %q", req.Stream)
		return nil, err
	}
	if req.Video != nil && kind != "video" {
		err = invalidf("the video object only applies to \"stream\": \"video\", not %q", kind)
		return nil, err
	}
	if len(req.Frames) > 0 && kind != "trace" {
		err = invalidf("frames only apply to \"stream\": \"trace\", not %q", kind)
		return nil, err
	}
	// The trace defines its own rate; for every other kind the rate is the
	// nominal stream rate and is required.
	var rate units.BitRate
	var videoSpec, traceSpec workload.StreamSpec
	var vkey videoKey
	var fkeys []traceFrameKey
	if kind == "trace" {
		if req.Rate != "" {
			err = invalidf("rate does not apply to \"stream\": \"trace\" (the frames define it)")
			return nil, err
		}
		var frames []workload.Frame
		frames, fkeys, err = resolveFrames(req.Frames)
		if err != nil {
			return nil, err
		}
		// Built once: the spec memoizes its demand pattern, which every
		// replica's validation and run then shares.
		traceSpec = workload.TraceSpec(frames)
		rate = traceSpec.AverageRate()
	} else {
		rate, err = req.Rate.rate("rate")
		if err != nil {
			return nil, err
		}
		if kind == "video" {
			videoSpec, err = req.Video.resolve(rate)
			if err != nil {
				return nil, err
			}
			vkey = videoKeyOf(videoSpec)
		}
	}
	buffer, err := req.Buffer.size("buffer")
	if err != nil {
		return nil, err
	}
	duration, err := req.Duration.duration("duration", 5*units.Minute)
	if err != nil {
		return nil, err
	}
	if !duration.Positive() {
		err = invalidf("duration must be positive")
		return nil, err
	}
	if duration.Seconds() > MaxSimSeconds {
		err = invalidf("duration must not exceed %d simulated seconds, got %v", MaxSimSeconds, duration)
		return nil, err
	}
	bestEffort := 0.05
	if req.BestEffort != nil {
		bestEffort = *req.BestEffort
	}
	if math.IsNaN(bestEffort) || bestEffort < 0 || bestEffort >= 1 {
		err = invalidf("best_effort must be in [0, 1), got %v", bestEffort)
		return nil, err
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	replicas := req.Replicas
	if replicas == 0 {
		replicas = 1
	}
	if replicas < 1 || replicas > MaxSimReplicas {
		err = invalidf("replicas must be in [1, %d], got %d", MaxSimReplicas, req.Replicas)
		return nil, err
	}
	workers, err := s.workerBound(req.Workers)
	if err != nil {
		return nil, err
	}
	noteWorkers(ctx, effectiveWorkers(workers))
	// The trace's rate is derived from its frames (with subtractive
	// floating-point noise from the offset normalization); the quantized
	// frames already determine the run, so the key carries no rate for it.
	keyRate := rate.BitsPerSecond()
	if kind == "trace" {
		keyRate = 0
	}
	key, err := fingerprint("simulate", simulateKey{
		Backend:    sd.Kind,
		Device:     sd.MEMS,
		Disk:       sd.Disk,
		RateBps:    keyRate,
		BufferBits: buffer.Bits(),
		DurationS:  duration.Seconds(),
		Stream:     kind,
		Video:      vkey,
		Frames:     fkeys,
		BestEffort: bestEffort,
		Seed:       seed,
		Replicas:   replicas,
	})
	if err != nil {
		return nil, err
	}
	var body []byte
	body, err = s.memoize(ctx, key, func(ctx context.Context) (any, error) {
		var backend engine.Backend
		if sd.Kind == "disk" {
			backend = engine.NewDisk(sd.Disk)
		}
		mediaRate := sim.Config{Device: sd.MEMS, Backend: backend}.MediaRate()
		// One prototype configuration, validated once; RunReplicas applies
		// the replica seeds to every stochastic input, exactly as the old
		// per-replica construction did, and reuses one pooled simulator per
		// worker instead of building replicas simulators.
		var spec workload.StreamSpec
		switch kind {
		case "cbr":
			spec = workload.CBRSpec(rate)
		case "vbr":
			spec = workload.VBRSpec(rate, seed)
		case "video":
			spec = videoSpec
		case "trace":
			spec = traceSpec
		}
		cfg := sim.Config{
			Device:   sd.MEMS,
			Backend:  backend,
			DRAM:     device.DefaultDRAM(),
			Buffer:   buffer,
			Spec:     spec,
			Duration: duration,
			Seed:     seed,
		}
		if bestEffort > 0 {
			cfg.BestEffort = workload.NewBestEffortProcess(bestEffort, mediaRate, seed)
		}
		stats, err := sim.RunReplicas(ctx, workers, cfg, seed, replicas)
		if err != nil {
			// Validation and run-time simulator failures are both
			// request-derived (a run-time one is most commonly a buffer below
			// the disk's spin-up drain, which only the run itself detects);
			// keep them 400s, but let cancellations and deadline hits keep
			// their transport status codes.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			return nil, invalidf("%v", err)
		}
		resp := &SimulateResponse{
			Rate:   rate.String(),
			Buffer: buffer.String(),
			Runs:   make([]SimulateResult, len(stats)),
		}
		cal := workload.DefaultCalendar()
		for i, st := range stats {
			perBit := st.PerBitEnergy()
			resp.Runs[i] = SimulateResult{
				Seed:                seed + uint64(i),
				SimulatedSeconds:    st.SimulatedTime.Seconds(),
				StreamedBits:        st.StreamedBits.Bits(),
				RefillCycles:        st.RefillCycles,
				Underruns:           st.Underruns,
				RebufferEpisodes:    st.RebufferEpisodes,
				RebufferSeconds:     st.RebufferTime.Seconds(),
				StartupDelaySeconds: st.StartupDelay.Seconds(),
				EnergyPerBit:        perBit.String(),
				EnergyPerBitJoules:  perBit.JoulesPerBit(),
				DutyCycle:           st.DutyCycle(),
			}
			if sd.Kind == "mems" {
				// The wear projections are MEMS-specific: springs and probes
				// have no disk analogue, so disk runs omit both fields.
				resp.Runs[i].SpringsLifetimeYears = yearsOrNil(st.ProjectedSpringsLifetime(sd.MEMS, cal))
				resp.Runs[i].ProbesLifetimeYears = yearsOrNil(st.ProjectedProbesLifetime(sd.MEMS, cal))
			}
		}
		return resp, nil
	})
	return body, err
}

// Simulate answers a SimulateRequest through the cache.
func (s *Service) Simulate(ctx context.Context, req SimulateRequest) (*SimulateResponse, error) {
	return typed[SimulateResponse](s.SimulateBytes(ctx, req))
}

// multiSimKey is the canonical fingerprint payload of a MultiSimRequest. The
// policy enters in canonical spelling, and each stream carries its resolved
// parameters, so equivalent spellings share a cache entry.
type multiSimKey struct {
	Backend    string
	Device     device.MEMS
	Disk       device.Disk
	Policy     string
	Streams    []multiSimStreamKey
	DurationS  float64
	BestEffort float64
	Seed       uint64
	Replicas   int
}

// MultiSimBytes answers a MultiSimRequest with the cached response body.
func (s *Service) MultiSimBytes(ctx context.Context, req MultiSimRequest) ([]byte, error) {
	ctx, finish := s.begin(ctx)
	var err error
	defer func() { finish(err) }()

	sd, err := req.Device.resolveSim()
	if err != nil {
		return nil, err
	}
	policy, err := resolvePolicy(req.Policy)
	if err != nil {
		return nil, err
	}
	streams, skeys, err := resolveMultiSimStreams(req.Streams)
	if err != nil {
		return nil, err
	}
	duration, err := req.Duration.duration("duration", 5*units.Minute)
	if err != nil {
		return nil, err
	}
	if !duration.Positive() {
		err = invalidf("duration must be positive")
		return nil, err
	}
	if duration.Seconds() > MaxSimSeconds {
		err = invalidf("duration must not exceed %d simulated seconds, got %v", MaxSimSeconds, duration)
		return nil, err
	}
	bestEffort := 0.05
	if req.BestEffort != nil {
		bestEffort = *req.BestEffort
	}
	if math.IsNaN(bestEffort) || bestEffort < 0 || bestEffort >= 1 {
		err = invalidf("best_effort must be in [0, 1), got %v", bestEffort)
		return nil, err
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	replicas := req.Replicas
	if replicas == 0 {
		replicas = 1
	}
	if replicas < 1 || replicas > MaxSimReplicas {
		err = invalidf("replicas must be in [1, %d], got %d", MaxSimReplicas, req.Replicas)
		return nil, err
	}
	workers, err := s.workerBound(req.Workers)
	if err != nil {
		return nil, err
	}
	noteWorkers(ctx, effectiveWorkers(workers))
	key, err := fingerprint("multisim", multiSimKey{
		Backend:    sd.Kind,
		Device:     sd.MEMS,
		Disk:       sd.Disk,
		Policy:     string(policy),
		Streams:    skeys,
		DurationS:  duration.Seconds(),
		BestEffort: bestEffort,
		Seed:       seed,
		Replicas:   replicas,
	})
	if err != nil {
		return nil, err
	}
	var body []byte
	body, err = s.memoize(ctx, key, func(ctx context.Context) (any, error) {
		var backend engine.Backend
		if sd.Kind == "disk" {
			backend = engine.NewDisk(sd.Disk)
		}
		mediaRate := sim.MultiConfig{Device: sd.MEMS, Backend: backend}.MediaRate()
		// One prototype configuration, validated once; RunMultiReplicas
		// applies the replica seeds through the multi-stream convention
		// (stream j of replica i draws from seed+i ^ ((j+1)·golden ratio),
		// exactly as before) on one pooled simulator per worker.
		cfg := sim.MultiConfig{
			Device:   sd.MEMS,
			Backend:  backend,
			DRAM:     device.DefaultDRAM(),
			Policy:   policy,
			Duration: duration,
			Seed:     seed,
		}
		for j, st := range streams {
			cfg.Streams = append(cfg.Streams, sim.MultiStream{
				Name:     st.name,
				Spec:     st.spec(seed ^ (uint64(j+1) * 0x9e3779b97f4a7c15)),
				Buffer:   st.buffer,
				Priority: st.priority,
			})
		}
		if bestEffort > 0 {
			cfg.BestEffort = workload.NewBestEffortProcess(bestEffort, mediaRate, seed)
		}
		stats, err := sim.RunMultiReplicas(ctx, workers, cfg, seed, replicas)
		if err != nil {
			// Validation and run-time failures are both request-derived (a
			// run-time one is most commonly a buffer that cannot cover the
			// multi-stream service round); keep them 400s, but let
			// cancellations keep their transport status codes.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			return nil, invalidf("%v", err)
		}
		resp := &MultiSimResponse{
			Policy: string(policy),
			Runs:   make([]MultiSimResult, len(stats)),
		}
		cal := workload.DefaultCalendar()
		for i, st := range stats {
			perBit := st.Device.PerBitEnergy()
			run := MultiSimResult{
				Seed:               seed + uint64(i),
				SimulatedSeconds:   st.Device.SimulatedTime.Seconds(),
				WakeUps:            st.Device.RefillCycles,
				StreamedBits:       st.Device.StreamedBits.Bits(),
				Underruns:          st.Device.Underruns,
				EnergyPerBit:       perBit.String(),
				EnergyPerBitJoules: perBit.JoulesPerBit(),
				DutyCycle:          st.Device.DutyCycle(),
			}
			if sd.Kind == "mems" {
				run.SpringsLifetimeYears = yearsOrNil(st.Device.ProjectedSpringsLifetime(sd.MEMS, cal))
				run.ProbesLifetimeYears = yearsOrNil(st.Device.ProjectedProbesLifetime(sd.MEMS, cal))
			}
			for j, stream := range st.Streams {
				run.Streams = append(run.Streams, MultiSimStreamResult{
					Name:                stream.Name,
					StreamedBits:        stream.StreamedBits.Bits(),
					RefillCycles:        stream.RefillCycles,
					Underruns:           stream.Underruns,
					RebufferEpisodes:    stream.RebufferEpisodes,
					RebufferSeconds:     stream.RebufferTime.Seconds(),
					StartupDelaySeconds: stream.StartupDelay.Seconds(),
					MinBufferLevelBits:  stream.MinBufferLevel.Bits(),
					EnergyShare:         st.EnergyShare(j),
				})
			}
			resp.Runs[i] = run
		}
		return resp, nil
	})
	return body, err
}

// MultiSim answers a MultiSimRequest through the cache.
func (s *Service) MultiSim(ctx context.Context, req MultiSimRequest) (*MultiSimResponse, error) {
	return typed[MultiSimResponse](s.MultiSimBytes(ctx, req))
}

// breakEvenKey is the canonical fingerprint payload of a BreakEvenRequest.
type breakEvenKey struct {
	Device  device.MEMS
	RateBps float64
}

// BreakEvenBytes answers a BreakEvenRequest with the cached response body.
func (s *Service) BreakEvenBytes(ctx context.Context, req BreakEvenRequest) ([]byte, error) {
	ctx, finish := s.begin(ctx)
	var err error
	defer func() { finish(err) }()

	dev, err := req.Device.resolve()
	if err != nil {
		return nil, err
	}
	rate, err := req.Rate.rate("rate")
	if err != nil {
		return nil, err
	}
	key, err := fingerprint("breakeven", breakEvenKey{Device: dev, RateBps: rate.BitsPerSecond()})
	if err != nil {
		return nil, err
	}
	// The MEMS and disk inversions fan out on exactly two workers.
	noteWorkers(ctx, 2)
	var body []byte
	body, err = s.memoize(ctx, key, func(ctx context.Context) (any, error) {
		// The MEMS and disk inversions are independent; fan them out on the
		// shared pool so the request honours cancellation between them.
		buffers, err := parallel.Map(ctx, 2, 2, func(_ context.Context, i int) (units.Size, error) {
			if i == 0 {
				return energy.BreakEvenBuffer(energy.MEMSBreakEvenAdapter{Device: dev}, rate)
			}
			return energy.BreakEvenBuffer(energy.DiskBreakEvenAdapter{Disk: device.Default18InchDisk()}, rate)
		})
		if err != nil {
			return nil, err
		}
		mems, disk := buffers[0], buffers[1]
		resp := &BreakEvenResponse{
			Rate:     rate.String(),
			MEMSBits: mems.Bits(),
			DiskBits: disk.Bits(),
			MEMS:     mems.String(),
			Disk:     disk.String(),
		}
		if mems.Positive() {
			resp.DiskOverMEMS = disk.DivideBy(mems)
		}
		return resp, nil
	})
	return body, err
}

// BreakEven answers a BreakEvenRequest through the cache.
func (s *Service) BreakEven(ctx context.Context, req BreakEvenRequest) (*BreakEvenResponse, error) {
	return typed[BreakEvenResponse](s.BreakEvenBytes(ctx, req))
}

// multiStreamKey is the canonical fingerprint payload of a MultiStreamRequest.
type multiStreamKey struct {
	Device                device.MEMS
	Goal                  core.Goal
	Streams               []multistream.StreamSpec
	CountInterStreamSeeks bool
}

// MultiStreamBytes answers a MultiStreamRequest with the cached response body.
func (s *Service) MultiStreamBytes(ctx context.Context, req MultiStreamRequest) ([]byte, error) {
	ctx, finish := s.begin(ctx)
	var err error
	defer func() { finish(err) }()

	dev, err := req.Device.resolve()
	if err != nil {
		return nil, err
	}
	goal, err := req.Goal.resolve()
	if err != nil {
		return nil, err
	}
	streams, err := resolveStreams(req.Streams)
	if err != nil {
		return nil, err
	}
	key, err := fingerprint("multistream", multiStreamKey{
		Device:                dev,
		Goal:                  goal,
		Streams:               streams,
		CountInterStreamSeeks: req.CountInterStreamSeeks,
	})
	if err != nil {
		return nil, err
	}
	// Shared-device dimensioning is a single sequential computation.
	noteWorkers(ctx, 1)
	var body []byte
	body, err = s.memoize(ctx, key, func(ctx context.Context) (any, error) {
		system, err := multistream.NewSystem(dev, device.DefaultDRAM(), workloadForStreams(), streams)
		if err != nil {
			return nil, invalidf("%v", err)
		}
		system.CountInterStreamSeeks = req.CountInterStreamSeeks
		dim, err := await(ctx, func() (multistream.Dimensioning, error) { return system.Dimension(goal) })
		if err != nil {
			return nil, err
		}
		resp := &MultiStreamResponse{
			Feasible: dim.Feasible,
			Dominant: dim.Dominant.String(),
		}
		if len(dim.Reasons) > 0 {
			resp.Reasons = make(map[string]string, len(dim.Reasons))
			for c, reason := range dim.Reasons {
				resp.Reasons[c.String()] = reason
			}
		}
		if dim.Feasible {
			resp.PeriodSeconds = dim.Period.Seconds()
			resp.Period = dim.Period.String()
			resp.TotalBufferBits = dim.Plan.TotalBuffer.Bits()
			resp.TotalBuffer = dim.Plan.TotalBuffer.String()
			resp.EnergySaving = dim.Plan.EnergySaving
			resp.Utilisation = dim.Plan.Utilisation
			resp.LifetimeYears = yearsOrNil(dim.Plan.Lifetime)
			for i, b := range dim.Plan.Buffers {
				resp.Buffers = append(resp.Buffers, MultiStreamBuffer{
					Name:       streams[i].Name,
					BufferBits: b.Bits(),
					Buffer:     b.String(),
				})
			}
		}
		return resp, nil
	})
	return body, err
}

// MultiStream answers a MultiStreamRequest through the cache.
func (s *Service) MultiStream(ctx context.Context, req MultiStreamRequest) (*MultiStreamResponse, error) {
	return typed[MultiStreamResponse](s.MultiStreamBytes(ctx, req))
}

// workloadForStreams returns the shared-device workload: the Table I
// calendar, with the per-stream write mix coming from the stream specs.
func workloadForStreams() lifetime.Workload { return lifetime.DefaultWorkload() }

// typed decodes a cached response body into its response type.
func typed[T any](body []byte, err error) (*T, error) {
	if err != nil {
		return nil, err
	}
	var resp T
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("service: decode cached response: %w", err)
	}
	return &resp, nil
}

// maxBodyBytes bounds request bodies read by the HTTP layer.
const maxBodyBytes = 1 << 20

// Health is the /healthz payload.
type Health struct {
	// Status is "ok" while the service is serving.
	Status string `json:"status"`
	// UptimeSeconds is the time since the Service was built.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Version is the module build version from debug.ReadBuildInfo.
	Version string `json:"version"`
}

// Health returns the liveness payload.
func (s *Service) Health() Health {
	return Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Version:       buildVersion(),
	}
}

// Handler returns the HTTP handler serving every endpoint. Every route
// except GET /metricsz is instrumented with the request counter and latency
// histogram families (scrapes must not observe themselves, so that two
// scrapes of an idle service stay byte-identical). The /v1 compute
// endpoints additionally pass the traffic controls, outermost first: the
// per-client rate limiter, then the admission controller, then the strict
// JSON decode — so refusals are counted and logged like any response but
// cost no decode or compute.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, endpointLabel string, h http.Handler) {
		mux.Handle(pattern, s.instrument(endpointLabel, h))
	}
	v1 := func(pattern, endpointLabel string, h http.Handler) {
		handle(pattern, endpointLabel, s.rateLimited(s.admitted(endpointLabel, h)))
	}
	handle("GET /healthz", "/healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Health())
	}))
	handle("GET /statsz", "/statsz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	}))
	mux.Handle("GET /metricsz", s.MetricsHandler())
	v1("POST /v1/dimension", "/v1/dimension", endpoint(s, s.DimensionBytes))
	v1("POST /v1/sweep", "/v1/sweep", endpoint(s, s.SweepBytes))
	v1("POST /v1/simulate", "/v1/simulate", endpoint(s, s.SimulateBytes))
	v1("POST /v1/multisim", "/v1/multisim", endpoint(s, s.MultiSimBytes))
	v1("POST /v1/breakeven", "/v1/breakeven", endpoint(s, s.BreakEvenBytes))
	v1("POST /v1/multistream", "/v1/multistream", endpoint(s, s.MultiStreamBytes))
	return mux
}

// endpoint adapts one typed Bytes method into a strict-JSON HTTP handler.
func endpoint[Req any](s *Service, serve func(context.Context, Req) ([]byte, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req Req
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				// An oversized body is a malformed request, not load
				// shedding: it gets its own counter so the shed total means
				// admission-control refusals only.
				s.met.bodyTooLarge.Inc()
				writeJSON(w, http.StatusRequestEntityTooLarge,
					errorBody{Error: fmt.Sprintf("service: request body exceeds %d bytes", tooLarge.Limit)})
				return
			}
			writeError(w, invalidf("decode body: %v", err))
			return
		}
		if dec.More() {
			writeError(w, invalidf("request body must be a single JSON object"))
			return
		}
		body, err := serve(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	})
}

// errorBody is the JSON error payload of every non-200 response. 429
// refusals additionally carry the Retry-After hint in the body, so strict
// JSON clients need not parse headers.
type errorBody struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429 responses.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// writeError maps an error onto a status code and a JSON body.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var verr *ValidationError
	switch {
	case errors.As(err, &verr):
		status = http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; 499 in nginx convention.
		status = 499
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeJSON marshals v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}
