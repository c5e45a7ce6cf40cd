// Package sim contains a discrete-event simulator of the streaming
// storage + DRAM architecture of Fig. 1: a stream drains (or fills) the DRAM
// buffer continuously while the storage device wakes up periodically to
// position, refill the buffer at the media rate, serve queued best-effort
// requests, and shut down again.
//
// The simulator exists to validate the analytical models of internal/energy
// and internal/lifetime against an executable system model, to support
// workloads the closed forms cannot express (variable-bit-rate streams,
// bursty best-effort traffic), and to exercise the ECC substrate end to end
// through an optional media bit-error model.
//
// The cycle machinery and per-state accounting live in internal/engine: an
// event-driven core that steps exactly from rate change to rate change and
// charges time and energy against a pluggable device backend. The default
// backend is the MEMS device of Config.Device; Config.Backend swaps in any
// other engine.Backend (for example the 1.8-inch disk baseline), so the
// paper's break-even comparison can be validated by simulation. legacy.go
// preserves the original fixed-slice integration path as the parity oracle
// for the event-driven engine.
package sim

import (
	"errors"
	"fmt"
	"reflect"

	"memstream/internal/device"
	"memstream/internal/ecc"
	"memstream/internal/engine"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// RateSource samples the instantaneous demand of a stream. workload's
// RatePattern (CBR/VBR) and VideoRatePattern (MPEG-like frame traces) both
// implement it.
type RateSource = engine.RateSource

// halfFrameSlice is the sampling resolution for custom rate sources that
// cannot announce their own rate changes: half a frame interval at the 25 fps
// video default, the legacy fixed-slice resolution the event-driven engine
// degrades to on such sources.
var halfFrameSlice = units.Second.Scale(0.02)

// Stats accumulates everything observed during a run. It is the engine's
// statistics record; the public facade re-exports it as memstream.SimStats.
type Stats = engine.Stats

// Config describes one simulation run.
type Config struct {
	// Device is the MEMS storage device (ignored by the cycle machinery when
	// Backend is set, but still used for MEMS-specific wear projections).
	Device device.MEMS
	// Backend optionally selects the device driven through the refill cycle
	// — engine.NewDisk for the 1.8-inch baseline, or any custom
	// engine.Backend. Leave nil to simulate the MEMS Device above.
	Backend engine.Backend
	// DRAM is the buffer in front of it.
	DRAM device.DRAM
	// Buffer is the streaming-buffer capacity B.
	Buffer units.Size
	// Spec describes the stream for any built-in workload kind (CBR, VBR,
	// frame-accurate video, user frame traces). When Spec.Kind is set it is
	// the single source of truth: the simulator derives the demand pattern
	// from it — for video, with the trace horizon tied to Duration (capped
	// at workload.MaxTraceHorizon, wrapping beyond) — and takes the write
	// mix from Spec.WriteFraction; Stream and RateSource are ignored.
	Spec workload.StreamSpec
	// Stream is the legacy stream description, used when Spec.Kind is
	// empty. New code should prefer Spec.
	Stream workload.Stream
	// RateSource optionally overrides the demand sampling of Stream (for
	// example with a pre-generated video trace). Stream still provides the
	// nominal rate and the write fraction. Ignored when Spec.Kind is set;
	// sources that cannot announce their own rate changes fall back to
	// half-frame slicing, which the Spec path never needs.
	RateSource RateSource
	// BestEffort is the background request process. Leave the zero value for
	// a clean stream with no best-effort traffic.
	BestEffort workload.BestEffortProcess
	// Duration is the simulated streaming time.
	Duration units.Duration
	// BitErrorRate is the raw media bit-error rate exercised through the ECC
	// codec (zero disables the error model).
	BitErrorRate float64
	// ECCSampleWords is the number of codewords sampled per refill for the
	// error model (defaults to 8 when the error model is active).
	ECCSampleWords int
	// Seed makes the run reproducible.
	Seed uint64
}

// backend returns the device backend the run drives: Config.Backend when
// set, the MEMS device otherwise.
func (c Config) backend() engine.Backend {
	if c.Backend != nil {
		return c.Backend
	}
	return engine.NewMEMS(c.Device)
}

// MediaRate returns the media transfer rate of the device the configuration
// simulates — the single place the Backend-or-Device fallback is resolved,
// so callers sizing best-effort processes against the media rate cannot
// diverge from the simulator.
func (c Config) MediaRate() units.BitRate {
	return c.backend().MediaRate()
}

// Validate checks the configuration. The device behind the run is always
// validated: the MEMS Device directly, or the Backend through its Validate
// method.
func (c Config) Validate() error {
	var errs []error
	if err := c.backend().Validate(); err != nil {
		errs = append(errs, err)
	}
	if c.Backend != nil && !c.Backend.MediaRate().Positive() {
		// Custom backends may validate loosely; the engine still needs a
		// positive media rate to form a refill cycle at all.
		errs = append(errs, errors.New("sim: backend media rate must be positive"))
	}
	if err := c.DRAM.Validate(); err != nil {
		errs = append(errs, err)
	}
	if c.Spec.Kind != "" {
		if err := c.Spec.Validate(); err != nil {
			errs = append(errs, err)
		}
	} else if err := c.Stream.Validate(); err != nil {
		errs = append(errs, err)
	}
	if c.BestEffort.TargetFraction > 0 {
		if err := c.BestEffort.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	if !c.Buffer.Positive() {
		errs = append(errs, errors.New("sim: buffer must be positive"))
	}
	if !c.Duration.Positive() {
		errs = append(errs, errors.New("sim: duration must be positive"))
	}
	mediaRate := c.backend().MediaRate()
	if mediaRate.Positive() {
		if c.Spec.Kind != "" {
			// The peak bound covers the average too, but both checks name the
			// quantity a user would recognise in the error. RateBounds scans
			// a trace once for both values.
			average, peak := c.Spec.RateBounds()
			if average >= mediaRate {
				errs = append(errs, errors.New("sim: stream rate must be below the media rate"))
			}
			if peak >= mediaRate {
				errs = append(errs, errors.New("sim: the stream's peak demand must be below the media rate"))
			}
		} else {
			if c.Stream.NominalRate >= mediaRate {
				errs = append(errs, errors.New("sim: stream rate must be below the media rate"))
			}
			if c.RateSource != nil && c.RateSource.PeakRate() >= mediaRate {
				errs = append(errs, errors.New("sim: the rate source's peak demand must be below the media rate"))
			}
		}
	}
	if c.BitErrorRate < 0 || c.BitErrorRate >= 1 {
		errs = append(errs, errors.New("sim: bit-error rate must be in [0, 1)"))
	}
	return errors.Join(errs...)
}

// Simulator runs the refill-cycle state machine on the unified event-driven
// scheduling core, as its K=1 case.
type Simulator struct {
	cfg     Config
	backend engine.Backend
	core    *engine.MultiCore
	source  RateSource
	rng     *workload.Rng
	// run is the shared cycle loop, configured for the single-stream model:
	// top-off refill, inflated background writes, full-buffer DRAM charge
	// and the ECC error model.
	run runner
}

// New builds a simulator from a validated configuration.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newValidated(cfg)
}

// newValidated builds a simulator assuming cfg already passed Validate, so
// batch runners validating a whole batch once do not pay per-replica
// re-validation.
func newValidated(cfg Config) (*Simulator, error) {
	var source RateSource
	writeFraction := cfg.Stream.WriteFraction
	switch {
	case cfg.Spec.Kind != "":
		// Every built-in kind announces its own rate changes, so the spec
		// path never needs the half-frame Sliced fallback.
		pattern, err := cfg.Spec.Pattern(cfg.Duration)
		if err != nil {
			return nil, err
		}
		source = pattern
		writeFraction = cfg.Spec.WriteFraction
	case cfg.RateSource != nil:
		// A custom source that cannot announce its own rate changes falls
		// back to the legacy half-frame sampling resolution.
		source = engine.Sliced(cfg.RateSource, halfFrameSlice)
	default:
		pattern, err := workload.NewRatePattern(cfg.Stream)
		if err != nil {
			return nil, err
		}
		source = pattern
	}
	if cfg.BitErrorRate > 0 && cfg.ECCSampleWords <= 0 {
		cfg.ECCSampleWords = 8
	}
	backend := cfg.backend()
	core := engine.NewMultiCore(backend, []engine.StreamConfig{{
		Source:        source,
		Buffer:        cfg.Buffer,
		WriteFraction: writeFraction,
	}})
	s := &Simulator{
		cfg:     cfg,
		backend: backend,
		core:    core,
		source:  source,
		rng:     workload.NewRng(cfg.Seed ^ 0xdeadbeefcafef00d),
	}
	s.run = runner{
		core:                    core,
		policy:                  engine.PolicyRoundRobin,
		dram:                    cfg.DRAM,
		duration:                cfg.Duration,
		topOff:                  true,
		inflateBestEffortWrites: true,
		fixedCycleAccess:        cfg.Buffer,
		injectErrors:            s.injectErrors,
	}
	if err := s.run.rewindRequests(cfg.BestEffort); err != nil {
		return nil, err
	}
	return s, nil
}

// patternSeed returns the seed the demand pattern derives its randomness
// from: the spec's for the typed path, the legacy stream's otherwise.
func (c Config) patternSeed() uint64 {
	if c.Spec.Kind != "" {
		return c.Spec.Seed
	}
	return c.Stream.Seed
}

// ResetFor rewinds the simulator so its next Run replays cfg from scratch,
// reusing the engine core, the demand pattern's storage and the best-effort
// arrival cursor instead of rebuilding them: after a ResetFor, Run produces
// bit-identical statistics to a fresh New(cfg) run. cfg must be reset-
// compatible with the configuration the simulator was built from — identical
// except for the seeds (Seed, Spec.Seed/Stream.Seed, BestEffort.Seed) — and
// the simulator must not drive a custom RateSource, whose internal state the
// engine cannot rewind; ResetFor reports an error otherwise. RunBatch uses
// it to run seed-varied replicas with an allocation-free steady state.
func (s *Simulator) ResetFor(cfg Config) error {
	if cfg.BitErrorRate > 0 && cfg.ECCSampleWords <= 0 {
		// The same defaulting New applies, so the stored (normalized)
		// configuration compares equal to a caller's un-normalized one.
		cfg.ECCSampleWords = 8
	}
	if !resetCompatible(s.cfg, cfg) {
		return errors.New("sim: ResetFor needs a reset-compatible configuration (identical up to seeds, no custom rate source)")
	}
	return s.rewind(cfg)
}

// rewind is ResetFor without the compatibility check, for callers that know
// cfg is reset-compatible by construction (Reset derives it from the stored
// configuration; the batch runners verify the whole batch once up front). It
// allocates nothing in steady state: the pattern regenerates into its own
// storage and the best-effort cursor only reseeds, drawing its requests
// during Run.
func (s *Simulator) rewind(cfg Config) error {
	if cfg.RateSource != nil {
		// The caller owns the source's internal state, which the engine
		// cannot rewind — even when the source is one of the resettable
		// pattern types below, reseeding it here would desync it from the
		// caller's view of it.
		return errors.New("sim: a custom rate source cannot be reset")
	}
	if cfg.BitErrorRate > 0 && cfg.ECCSampleWords <= 0 {
		cfg.ECCSampleWords = 8
	}
	switch p := s.source.(type) {
	case *workload.RatePattern:
		p.Reset(cfg.patternSeed())
	case *workload.VideoRatePattern:
		if err := p.Reset(cfg.patternSeed()); err != nil {
			return err
		}
	case *workload.TracePattern:
		// Read-only after construction; the replayed frames carry no seed.
	default:
		return errors.New("sim: a custom rate source cannot be reset")
	}
	if err := s.run.rewindRequests(cfg.BestEffort); err != nil {
		return err
	}
	s.cfg = cfg
	s.rng.Seed(cfg.Seed ^ 0xdeadbeefcafef00d)
	// Reset re-provisions the wake level against the reseeded pattern's
	// realized peak, so it must follow the pattern reset above.
	s.core.Reset()
	return nil
}

// Reset is the common-case ResetFor: it re-seeds every stochastic input —
// the run's own RNG, the demand pattern and the best-effort process — with
// the same replica seed, exactly as the service layer derives its replicas,
// and rewinds the simulator for the next Run. The derived configuration is
// reset-compatible by construction, so Reset skips the compatibility check
// and runs allocation-free.
func (s *Simulator) Reset(seed uint64) error {
	return s.rewind(reseedConfig(s.cfg, seed))
}

// resetCompatible reports whether two configurations are identical up to
// their seed fields, so a simulator built for a can be rewound into b by
// ResetFor. Custom rate sources are never reset-compatible: the engine
// cannot rewind state it does not own.
func resetCompatible(a, b Config) bool {
	if a.RateSource != nil || b.RateSource != nil {
		return false
	}
	a.Seed, b.Seed = 0, 0
	a.Spec.Seed, b.Spec.Seed = 0, 0
	a.Stream.Seed, b.Stream.Seed = 0, 0
	a.BestEffort.Seed, b.BestEffort.Seed = 0, 0
	return reflect.DeepEqual(a, b)
}

// injectErrors exercises the ECC codec with the configured raw bit-error rate
// on a sample of codewords for this refill.
func (s *Simulator) injectErrors() {
	if s.cfg.BitErrorRate <= 0 || s.cfg.ECCSampleWords <= 0 {
		return
	}
	stats := s.core.DeviceStats()
	expectedFlipsPerWord := s.cfg.BitErrorRate * float64(ecc.CodewordBits)
	for i := 0; i < s.cfg.ECCSampleWords; i++ {
		word := s.rng.Uint64()
		cw := ecc.Encode(word)
		flips := poissonSample(s.rng, expectedFlipsPerWord)
		for f := 0; f < flips; f++ {
			pos := s.rng.Intn(ecc.CodewordBits)
			if pos < ecc.DataBits {
				cw = cw.FlipDataBit(pos)
			} else {
				cw = cw.FlipParityBit(pos - ecc.DataBits)
			}
		}
		decoded, corrected, err := ecc.Decode(cw)
		if err != nil {
			stats.ECCUncorrectable++
			continue
		}
		stats.ECCCorrected += corrected
		if flips == 0 && decoded != word {
			// This cannot happen with a correct codec; record it as an
			// uncorrectable event so tests would catch a regression.
			stats.ECCUncorrectable++
		}
	}
}

// Run executes the simulation and returns the collected statistics.
func (s *Simulator) Run() (*Stats, error) {
	// Wake the device early enough that the buffer survives the positioning
	// transition at the stream's peak demand, with a small safety margin.
	if s.core.WakeLevel(0) >= s.cfg.Buffer {
		return nil, fmt.Errorf("sim: buffer %v cannot even cover the %v positioning time at peak demand",
			s.cfg.Buffer, s.backend.PositioningTime())
	}
	s.run.run()
	stats := s.core.DeviceStats()
	// Fold this run into the process-wide observability totals, once, now
	// that the statistics are final.
	stats.RecordRun()
	replicasRun.Add(1)
	return stats, nil
}

// RunConfig is a convenience wrapper: build a simulator and run it.
func RunConfig(cfg Config) (*Stats, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
