package workload

import (
	"errors"
	"fmt"

	"memstream/internal/units"
)

// SpecKind names a stream workload family. The string values are the wire
// and CLI spellings ("stream": "video", memssim -stream video), so every
// layer agrees on one vocabulary.
type SpecKind string

// The built-in workload kinds.
const (
	// SpecCBR is a constant-bit-rate stream.
	SpecCBR SpecKind = "cbr"
	// SpecVBR is the segment-wise variable-bit-rate stream.
	SpecVBR SpecKind = "vbr"
	// SpecVideo is the MPEG-like frame-accurate video trace, generated from
	// a GOP structure.
	SpecVideo SpecKind = "video"
	// SpecTrace is a user-supplied frame trace.
	SpecTrace SpecKind = "trace"
)

// specKinds lists the valid kinds for error messages.
const specKinds = `"cbr", "vbr", "video" or "trace"`

// MaxTraceHorizon caps the length of a generated video trace. A simulation
// longer than the cap replays the trace from the start (the wrap-around is
// explicit in the pattern, not an accident of a fixed generation window), so
// memory per run stays bounded while every run shorter than the cap sees a
// trace covering its full duration.
const MaxTraceHorizon = units.Hour

// Pattern samples piecewise-constant stream demand and announces its own
// rate changes, so event-driven integrators can step exactly from change to
// change, and rewinds in place for a seed-varied replica. RatePattern,
// VideoRatePattern and TracePattern all implement it.
type Pattern interface {
	// RateAt returns the demand in effect at time t.
	RateAt(t units.Duration) units.BitRate
	// PeakRate returns the largest demand the pattern can produce.
	PeakRate() units.BitRate
	// AverageRate returns the long-run average demand.
	AverageRate() units.BitRate
	// NextRateChange returns the earliest time strictly after t at which
	// RateAt may return a different value.
	NextRateChange(t units.Duration) units.Duration
	// Reset rewinds the pattern to the state its constructor would build
	// for the same description re-seeded with seed, reusing its storage.
	Reset(seed uint64) error
}

// StreamSpec is the typed stream description shared by every layer: the
// simulator consumes it directly, the service parses requests into it and
// the CLI builds it from flags. Exactly one workload family is active,
// selected by Kind; the other families' fields are ignored.
type StreamSpec struct {
	// Kind selects the workload family.
	Kind SpecKind
	// Rate is the nominal (long-run average) stream rate. Ignored for
	// SpecTrace, where the rate is derived from the frames.
	Rate units.BitRate
	// WriteFraction is the share of the stream written to the device.
	WriteFraction float64
	// Seed makes the stochastic kinds (vbr, video) reproducible.
	Seed uint64

	// SegmentLength and Variability parameterise SpecVBR (zero values take
	// the NewVBRStream defaults: two-second segments, ±30 %).
	SegmentLength units.Duration
	Variability   float64

	// FrameRate, GOPLength, IPDistance, the class weights and Jitter
	// parameterise SpecVideo. Zero values of the first six take the
	// NewVideoStream defaults (25 fps, N=12, M=3, 5:3:1 weights); Jitter is
	// taken verbatim, because zero is a meaningful value there (a
	// deterministic trace) — the VideoSpec constructor seeds the 20 %
	// default.
	FrameRate  float64
	GOPLength  int
	IPDistance int
	WeightI    float64
	WeightP    float64
	WeightB    float64
	Jitter     float64

	// Frames is the user-supplied trace of SpecTrace, with timestamps
	// starting at zero and strictly increasing (ParseFrames and
	// NormalizeFrames produce this form).
	Frames []Frame

	// trace memoizes the pattern over Frames. The TraceSpec constructor
	// fills it so validation, rate bounds and the simulator share one
	// O(frames) construction (the pattern is read-only after construction
	// and safe to share, unlike the stateful VBR sampler); hand-built specs
	// leave it nil and fall back to building per use.
	trace *TracePattern
}

// CBRSpec returns a constant-bit-rate spec at the given rate with the
// Table I write share.
func CBRSpec(rate units.BitRate) StreamSpec {
	return StreamSpec{Kind: SpecCBR, Rate: rate, WriteFraction: 0.4}
}

// VBRSpec returns a variable-bit-rate spec with the NewVBRStream defaults.
func VBRSpec(rate units.BitRate, seed uint64) StreamSpec {
	s := NewVBRStream(rate, seed)
	return StreamSpec{
		Kind:          SpecVBR,
		Rate:          rate,
		WriteFraction: s.WriteFraction,
		Seed:          seed,
		SegmentLength: s.SegmentLength,
		Variability:   s.Variability,
	}
}

// VideoSpec returns an MPEG-like video spec with the NewVideoStream
// defaults (12-frame GOP at 25 fps, 5:3:1 weights, 20 % jitter).
func VideoSpec(rate units.BitRate, seed uint64) StreamSpec {
	v := NewVideoStream(rate, seed)
	return StreamSpec{
		Kind:          SpecVideo,
		Rate:          rate,
		WriteFraction: v.WriteFraction,
		Seed:          seed,
		FrameRate:     v.FrameRate,
		GOPLength:     v.GOPLength,
		IPDistance:    v.IPDistance,
		WeightI:       v.WeightI,
		WeightP:       v.WeightP,
		WeightB:       v.WeightB,
		Jitter:        v.Jitter,
	}
}

// TraceSpec returns a spec replaying the given frames with the Table I
// write share. The frames should be in NormalizeFrames form (Validate
// reports them otherwise) and must not be mutated afterwards: the spec
// builds its demand pattern over them once, here.
func TraceSpec(frames []Frame) StreamSpec {
	s := StreamSpec{Kind: SpecTrace, WriteFraction: 0.4, Frames: frames}
	if p, err := NewTracePattern(frames); err == nil {
		s.trace = p
	}
	return s
}

// tracePattern returns the memoized pattern over Frames, building it on
// demand for hand-constructed specs.
func (s StreamSpec) tracePattern() (*TracePattern, error) {
	if s.trace != nil {
		return s.trace, nil
	}
	return NewTracePattern(s.Frames)
}

// stream converts the CBR/VBR families to the legacy Stream description.
func (s StreamSpec) stream() Stream {
	st := Stream{
		Kind:          CBR,
		NominalRate:   s.Rate,
		WriteFraction: s.WriteFraction,
	}
	if s.Kind == SpecVBR {
		st.Kind = VBR
		st.SegmentLength = s.SegmentLength
		st.Variability = s.Variability
		st.Seed = s.Seed
		if !st.SegmentLength.Positive() {
			st.SegmentLength = 2 * units.Second
		}
		if st.Variability == 0 {
			st.Variability = 0.3
		}
	}
	return st
}

// video converts the SpecVideo family to a VideoStream, applying the
// NewVideoStream defaults to zero-valued fields. Jitter is the one field
// for which zero is a meaningful value (a deterministic, jitter-free
// trace), so it is taken verbatim; the VideoSpec constructor seeds it with
// the 20 % default.
func (s StreamSpec) video() VideoStream {
	v := NewVideoStream(s.Rate, s.Seed)
	v.WriteFraction = s.WriteFraction
	v.Jitter = s.Jitter
	if s.FrameRate > 0 {
		v.FrameRate = s.FrameRate
	}
	if s.GOPLength > 0 {
		v.GOPLength = s.GOPLength
	}
	if s.IPDistance > 0 {
		v.IPDistance = s.IPDistance
	}
	if s.WeightI > 0 {
		v.WeightI = s.WeightI
	}
	if s.WeightP > 0 {
		v.WeightP = s.WeightP
	}
	if s.WeightB > 0 {
		v.WeightB = s.WeightB
	}
	return v
}

// Validate checks the spec for its active family.
func (s StreamSpec) Validate() error {
	switch s.Kind {
	case SpecCBR, SpecVBR:
		return s.stream().Validate()
	case SpecVideo:
		return s.video().Validate()
	case SpecTrace:
		var errs []error
		if s.WriteFraction < 0 || s.WriteFraction > 1 {
			errs = append(errs, errors.New("workload: write fraction must be in [0, 1]"))
		}
		if err := ValidateFrames(s.Frames); err != nil {
			errs = append(errs, err)
		}
		return errors.Join(errs...)
	default:
		return fmt.Errorf("workload: unknown stream kind %q (want %s)", string(s.Kind), specKinds)
	}
}

// RateBounds returns the long-run average and the largest instantaneous
// demand the spec can produce in one pass: nominal and nominal for CBR,
// nominal and the top of the variability band for VBR, nominal and the
// largest possible I frame over one frame interval for video, and the
// trace's own mean and largest frame for SpecTrace (built once — the trace
// scan is O(frames)). Buffer provisioning and media-rate admission check
// against the peak; it bounds the realized pattern peak from above.
func (s StreamSpec) RateBounds() (average, peak units.BitRate) {
	switch s.Kind {
	case SpecVideo:
		return s.Rate, s.video().PeakRate()
	case SpecTrace:
		p, err := s.tracePattern()
		if err != nil {
			return 0, 0
		}
		return p.AverageRate(), p.PeakRate()
	default:
		return s.Rate, s.stream().PeakRate()
	}
}

// PeakRate bounds the largest instantaneous demand the spec can produce.
func (s StreamSpec) PeakRate() units.BitRate {
	_, peak := s.RateBounds()
	return peak
}

// AverageRate returns the long-run average demand: the nominal rate for the
// generated kinds, the trace mean for SpecTrace.
func (s StreamSpec) AverageRate() units.BitRate {
	average, _ := s.RateBounds()
	return average
}

// TraceFrames returns the frame trace a run of the given duration would
// replay: the generated video trace (same horizon derivation as Pattern) or
// the user-supplied frames. CBR and VBR streams have no frame
// representation and return an error.
func (s StreamSpec) TraceFrames(duration units.Duration) ([]Frame, error) {
	p, err := s.Pattern(duration)
	if err != nil {
		return nil, err
	}
	switch t := p.(type) {
	case *VideoRatePattern:
		return t.Frames(), nil
	case *TracePattern:
		return t.Frames(), nil
	}
	return nil, fmt.Errorf("workload: %q streams have no frame trace", string(s.Kind))
}

// Pattern builds the demand sampler for a run of the given duration. For
// SpecVideo the trace horizon is the duration itself, capped at
// MaxTraceHorizon and floored at one frame interval; runs beyond the
// generated horizon wrap around explicitly (VideoRatePattern and
// TracePattern both replay from the start). CBR and VBR patterns are
// unbounded and need no horizon.
func (s StreamSpec) Pattern(duration units.Duration) (Pattern, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case SpecCBR, SpecVBR:
		return NewRatePattern(s.stream())
	case SpecVideo:
		v := s.video()
		horizon := duration
		if horizon > MaxTraceHorizon {
			horizon = MaxTraceHorizon
		}
		if interval := units.Second.Scale(1 / v.FrameRate); horizon < interval {
			horizon = interval
		}
		return NewVideoRatePattern(v, horizon)
	case SpecTrace:
		return s.tracePattern()
	default:
		return nil, fmt.Errorf("workload: unknown stream kind %q (want %s)", string(s.Kind), specKinds)
	}
}
