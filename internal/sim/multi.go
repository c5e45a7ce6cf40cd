package sim

// Multi-stream simulation: one shared device servicing several concurrent
// stream buffers under a pluggable scheduling policy, the executable
// counterpart of internal/multistream's closed-form super-cycle model. The
// per-stream buffers drain continuously; the device wakes when any buffer
// falls to its wake level, repositions to each stream region in turn (paying
// the backend's positioning transition per stream, exactly like the closed
// form's inter-stream seeks), refills that stream at the media rate, serves
// the best-effort backlog and shuts down again.

import (
	"context"
	"errors"
	"fmt"
	"reflect"

	"memstream/internal/device"
	"memstream/internal/engine"
	"memstream/internal/parallel"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// MultiStream describes one stream of a shared-device simulation.
type MultiStream struct {
	// Name labels the stream in results.
	Name string
	// Spec is the stream's workload description; any kind works (CBR, VBR,
	// frame-accurate video, user frame traces). The write mix comes from
	// Spec.WriteFraction.
	Spec workload.StreamSpec
	// Buffer is the stream's dedicated buffer capacity.
	Buffer units.Size
	// Priority is the stream's service class under engine.PolicyPriority:
	// higher values are serviced first within a wake-up (a recording
	// guarding a live signal outranks playback, for example). Other
	// policies ignore it.
	Priority int
}

// MultiConfig describes one shared-device simulation run.
type MultiConfig struct {
	// Device is the MEMS storage device (ignored by the cycle machinery when
	// Backend is set, but still used for MEMS-specific wear projections).
	Device device.MEMS
	// Backend optionally selects the device driven through the refill cycle,
	// as in Config.Backend. Leave nil to simulate the MEMS Device above.
	Backend engine.Backend
	// DRAM is the buffer model shared by all stream buffers.
	DRAM device.DRAM
	// Streams are the concurrent streams sharing the device.
	Streams []MultiStream
	// Policy selects the service order within a wake-up. The zero value is
	// engine.PolicyRoundRobin (the paper's gated cycle model).
	Policy engine.Policy
	// BestEffort is the background request process. Leave the zero value for
	// clean streams with no best-effort traffic.
	BestEffort workload.BestEffortProcess
	// Duration is the simulated streaming time.
	Duration units.Duration
	// Seed makes the run reproducible.
	Seed uint64
}

// backend returns the device backend the run drives: Backend when set, the
// MEMS device otherwise.
func (c MultiConfig) backend() engine.Backend {
	if c.Backend != nil {
		return c.Backend
	}
	return engine.NewMEMS(c.Device)
}

// MediaRate returns the media transfer rate of the simulated device.
func (c MultiConfig) MediaRate() units.BitRate {
	return c.backend().MediaRate()
}

// policy returns the effective scheduling policy (round-robin by default).
func (c MultiConfig) policy() engine.Policy {
	if c.Policy == "" {
		return engine.PolicyRoundRobin
	}
	return c.Policy
}

// AggregateRate returns the sum of the streams' long-run average demands.
func (c MultiConfig) AggregateRate() units.BitRate {
	var total units.BitRate
	for _, s := range c.Streams {
		total = total.Add(s.Spec.AverageRate())
	}
	return total
}

// Validate checks the configuration: valid parts, schedulable policy, and an
// admissible stream set (aggregate average demand and every stream's peak
// demand below the media rate).
func (c MultiConfig) Validate() error {
	var errs []error
	if err := c.backend().Validate(); err != nil {
		errs = append(errs, err)
	}
	if c.Backend != nil && !c.Backend.MediaRate().Positive() {
		errs = append(errs, errors.New("sim: backend media rate must be positive"))
	}
	if err := c.DRAM.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := c.policy().Validate(); err != nil {
		errs = append(errs, err)
	}
	if len(c.Streams) == 0 {
		errs = append(errs, errors.New("sim: at least one stream is required"))
	}
	mediaRate := c.backend().MediaRate()
	for i, s := range c.Streams {
		if err := s.Spec.Validate(); err != nil {
			errs = append(errs, fmt.Errorf("sim: stream %d (%s): %w", i, s.Name, err))
			continue
		}
		if !s.Buffer.Positive() {
			errs = append(errs, fmt.Errorf("sim: stream %d (%s): buffer must be positive", i, s.Name))
		}
		if peak := s.Spec.PeakRate(); mediaRate.Positive() && peak >= mediaRate {
			errs = append(errs, fmt.Errorf("sim: stream %d (%s): peak demand %v must be below the media rate %v",
				i, s.Name, peak, mediaRate))
		}
	}
	if len(errs) == 0 && mediaRate.Positive() && c.AggregateRate() >= mediaRate {
		errs = append(errs, fmt.Errorf("sim: aggregate stream rate %v must be below the media rate %v",
			c.AggregateRate(), mediaRate))
	}
	if c.BestEffort.TargetFraction > 0 {
		if err := c.BestEffort.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	if !c.Duration.Positive() {
		errs = append(errs, errors.New("sim: duration must be positive"))
	}
	return errors.Join(errs...)
}

// NamedStats is one stream's statistics in a multi-stream result.
type NamedStats struct {
	// Name labels the stream (from MultiStream.Name).
	Name string
	// Stats holds the stream's own accounting: streamed bits, underruns,
	// playback metrics, and the seek/transfer time and energy attributed to
	// servicing its buffer.
	Stats
}

// MultiStats is what a shared-device run observed: the aggregate device
// accounting plus one statistics record per stream.
type MultiStats struct {
	// Device is the aggregate accounting: all state residencies and energy,
	// the summed stream traffic, best-effort service and DRAM energy.
	// RefillCycles counts device wake-ups (super-cycles), not per-stream
	// refills.
	Device Stats
	// Streams holds the per-stream records in configuration order; each
	// stream's RefillCycles counts its own buffer refills.
	Streams []NamedStats
}

// EnergyShare returns stream i's share of the total device energy: the seek
// and transfer energy attributed to servicing its buffer, plus a
// streamed-bits-proportional share of the energy spent in shared states
// (standby, shutdown, best-effort).
func (m *MultiStats) EnergyShare(i int) float64 {
	total := m.Device.DeviceEnergy()
	if total.Joules() <= 0 {
		return 0
	}
	var attributed units.Energy
	for j := range m.Streams {
		attributed = attributed.Add(m.Streams[j].DeviceEnergy())
	}
	own := m.Streams[i].DeviceEnergy()
	if m.Device.StreamedBits.Positive() {
		shared := total.Sub(attributed)
		own = own.Add(shared.Scale(m.Streams[i].StreamedBits.DivideBy(m.Device.StreamedBits)))
	}
	return own.Joules() / total.Joules()
}

// MultiSimulator runs the shared-device scheduling loop on the unified
// event-driven scheduling core.
type MultiSimulator struct {
	cfg     MultiConfig
	backend engine.Backend
	core    *engine.MultiCore
	// sources keeps the per-stream demand patterns in configuration order so
	// ResetFor can reseed them in place across replicas.
	sources []engine.RateSource
	// run is the shared cycle loop, configured for the shared-device model:
	// no top-off, uninflated background writes, refilled-volume DRAM charge.
	run runner
}

// NewMulti builds a multi-stream simulator from a validated configuration.
func NewMulti(cfg MultiConfig) (*MultiSimulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newMultiValidated(cfg)
}

// newMultiValidated builds a simulator assuming cfg already passed Validate,
// so batch runners validating a whole batch once do not pay per-replica
// re-validation.
func newMultiValidated(cfg MultiConfig) (*MultiSimulator, error) {
	// The simulator owns its Streams slice: Reset re-seeds the entries in
	// place, which must never reach through to the caller's slice.
	cfg.Streams = append([]MultiStream(nil), cfg.Streams...)
	streams := make([]engine.StreamConfig, len(cfg.Streams))
	sources := make([]engine.RateSource, len(cfg.Streams))
	for i, s := range cfg.Streams {
		pattern, err := s.Spec.Pattern(cfg.Duration)
		if err != nil {
			return nil, fmt.Errorf("sim: stream %d (%s): %w", i, s.Name, err)
		}
		streams[i] = engine.StreamConfig{
			Source:        pattern,
			Buffer:        s.Buffer,
			WriteFraction: s.Spec.WriteFraction,
			Priority:      s.Priority,
		}
		sources[i] = pattern
	}
	backend := cfg.backend()
	core := engine.NewMultiCore(backend, streams)
	s := &MultiSimulator{
		cfg:     cfg,
		backend: backend,
		core:    core,
		sources: sources,
		run: runner{
			core:     core,
			policy:   cfg.policy(),
			dram:     cfg.DRAM,
			duration: cfg.Duration,
		},
	}
	if err := s.run.rewindRequests(cfg.BestEffort); err != nil {
		return nil, err
	}
	return s, nil
}

// ResetFor rewinds the simulator so its next Run replays cfg from scratch,
// reusing the engine core, every stream's demand pattern storage and the
// best-effort arrival cursor: after a ResetFor, Run produces bit-identical
// statistics to a fresh NewMulti(cfg) run. cfg must be reset-compatible with
// the configuration the simulator was built from — identical except for the
// seeds (Seed, each stream's Spec.Seed, BestEffort.Seed); ResetFor reports
// an error otherwise. Patterns are reseeded before the core re-provisions so
// the recomputed wake levels see the new traces' peaks.
func (s *MultiSimulator) ResetFor(cfg MultiConfig) error {
	if !multiResetCompatible(s.cfg, cfg) {
		return errors.New("sim: ResetFor needs a reset-compatible configuration (identical up to seeds)")
	}
	// Copy the entries into the simulator-owned slice so later Resets never
	// reach through to the caller's.
	streams := s.cfg.Streams
	copy(streams, cfg.Streams)
	cfg.Streams = streams
	return s.rewind(cfg)
}

// rewind is ResetFor without the compatibility check, for callers that know
// cfg is reset-compatible by construction and that cfg.Streams is the
// simulator-owned slice. Patterns are reseeded before the core re-provisions
// so the recomputed wake levels see the new traces' peaks.
func (s *MultiSimulator) rewind(cfg MultiConfig) error {
	for i, src := range s.sources {
		seed := cfg.Streams[i].Spec.Seed
		switch p := src.(type) {
		case *workload.RatePattern:
			p.Reset(seed)
		case *workload.VideoRatePattern:
			if err := p.Reset(seed); err != nil {
				return fmt.Errorf("sim: stream %d (%s): %w", i, cfg.Streams[i].Name, err)
			}
		case *workload.TracePattern:
			// Read-only after construction; the replayed frames carry no seed.
		default:
			return fmt.Errorf("sim: stream %d (%s): pattern cannot be reset", i, cfg.Streams[i].Name)
		}
	}
	if err := s.run.rewindRequests(cfg.BestEffort); err != nil {
		return err
	}
	s.cfg = cfg
	// Reset re-provisions the wake levels against the reseeded patterns'
	// realized peaks, so it must follow the pattern resets above.
	s.core.Reset()
	return nil
}

// Reset is the common-case ResetFor: it derives every stream's pattern seed
// from the replica seed exactly as the service layer does for its replicas —
// stream j gets seed ^ ((j+1) · golden ratio) so concurrent streams never
// share a random sequence — reseeds the best-effort process with the replica
// seed itself, and rewinds the simulator for the next Run. The derived
// configuration is reset-compatible by construction, so Reset skips the
// compatibility check and adds no allocations of its own.
func (s *MultiSimulator) Reset(seed uint64) error {
	// s.cfg.Streams is the simulator-owned backing; rewind replaces s.cfg
	// wholesale, so reseeding it in place is safe.
	return s.rewind(reseedMultiConfig(s.cfg, seed))
}

// multiResetCompatible reports whether two configurations are identical up
// to their seed fields (the run seed, each stream's spec seed and the
// best-effort seed), so a simulator built for a can be rewound into b.
func multiResetCompatible(a, b MultiConfig) bool {
	if len(a.Streams) != len(b.Streams) {
		return false
	}
	a.Seed, b.Seed = 0, 0
	a.BestEffort.Seed, b.BestEffort.Seed = 0, 0
	a.Streams = append([]MultiStream(nil), a.Streams...)
	b.Streams = append([]MultiStream(nil), b.Streams...)
	for i := range a.Streams {
		a.Streams[i].Spec.Seed = 0
		b.Streams[i].Spec.Seed = 0
	}
	return reflect.DeepEqual(a, b)
}

// Run executes the simulation and returns the collected statistics.
func (s *MultiSimulator) Run() (*MultiStats, error) {
	for i, st := range s.cfg.Streams {
		if s.core.WakeLevel(i) >= st.Buffer {
			return nil, fmt.Errorf(
				"sim: stream %d (%s): buffer %v cannot cover a full %d-stream service round at peak demand (wake level %v)",
				i, st.Name, st.Buffer, len(s.cfg.Streams), s.core.WakeLevel(i))
		}
	}
	s.run.run()
	dev := s.core.DeviceStats()

	out := &MultiStats{Device: *dev, Streams: make([]NamedStats, len(s.cfg.Streams))}
	for i, st := range s.cfg.Streams {
		stream := *s.core.StreamStats(i)
		stream.SimulatedTime = s.core.Now()
		out.Streams[i] = NamedStats{Name: st.Name, Stats: stream}
	}
	// Fold the device-level run into the process-wide observability totals,
	// once, now that the statistics are final.
	out.Device.RecordRun()
	replicasRun.Add(1)
	return out, nil
}

// RunMulti is a convenience wrapper: build a multi-stream simulator and run
// it.
func RunMulti(cfg MultiConfig) (*MultiStats, error) {
	s, err := NewMulti(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// RunMultiBatch runs every configuration as an independent shared-device
// simulation on a bounded worker pool and returns the statistics in input
// order, with the same worker and error semantics as RunBatch — including
// the reset fast path: a batch of seed-varied, otherwise identical
// configurations validates once and reuses one simulator per worker.
func RunMultiBatch(ctx context.Context, workers int, cfgs []MultiConfig) ([]*MultiStats, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	if multiBatchResettable(cfgs) {
		// One validation covers every replica: reset-compatible
		// configurations differ only in seeds, which Validate never inspects.
		if err := cfgs[0].Validate(); err != nil {
			return nil, fmt.Errorf("sim: batch config 0: %w", err)
		}
		slots := make([]*MultiSimulator, parallel.EffectiveWorkers(workers, len(cfgs)))
		return parallel.MapWorkers(ctx, workers, len(cfgs), func(_ context.Context, worker, i int) (*MultiStats, error) {
			s := slots[worker]
			if s == nil {
				var err error
				s, err = newMultiValidated(cfgs[i])
				if err != nil {
					return nil, fmt.Errorf("sim: batch config %d: %w", i, err)
				}
				slots[worker] = s
			} else {
				cfg := cfgs[i]
				streams := s.cfg.Streams
				copy(streams, cfg.Streams)
				cfg.Streams = streams
				if err := s.rewind(cfg); err != nil {
					return nil, fmt.Errorf("sim: batch config %d: %w", i, err)
				}
			}
			// Run builds a fresh MultiStats per invocation, so no copy is
			// needed before the next reset reuses the core.
			stats, err := s.Run()
			if err != nil {
				return nil, fmt.Errorf("sim: batch config %d: %w", i, err)
			}
			return stats, nil
		})
	}
	return parallel.Map(ctx, workers, len(cfgs), func(_ context.Context, i int) (*MultiStats, error) {
		stats, err := RunMulti(cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("sim: batch config %d: %w", i, err)
		}
		return stats, nil
	})
}

// multiBatchResettable reports whether every configuration of the batch can
// share one simulator per worker: at least two entries (a singleton gains
// nothing from the reset path) and all reset-compatible with the first.
func multiBatchResettable(cfgs []MultiConfig) bool {
	if len(cfgs) < 2 {
		return false
	}
	for _, cfg := range cfgs[1:] {
		if !multiResetCompatible(cfgs[0], cfg) {
			return false
		}
	}
	return true
}
