package workload

import (
	"errors"
	"fmt"
	"math"

	"memstream/internal/units"
)

// FrameClass is the coding class of a video frame.
type FrameClass int

// Video frame classes in an MPEG-style group of pictures.
const (
	// FrameI is an intra-coded frame (largest).
	FrameI FrameClass = iota
	// FrameP is a predicted frame.
	FrameP
	// FrameB is a bidirectionally predicted frame (smallest).
	FrameB
)

// String names the frame class.
func (c FrameClass) String() string {
	switch c {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	case FrameB:
		return "B"
	default:
		return fmt.Sprintf("FrameClass(%d)", int(c))
	}
}

// Frame is one encoded video frame of a trace.
type Frame struct {
	// Index is the display order of the frame.
	Index int
	// Timestamp is the frame's display time.
	Timestamp units.Duration
	// Class is the coding class.
	Class FrameClass
	// Size is the encoded frame size.
	Size units.Size
}

// VideoStream describes an MPEG-like encoded video stream with a periodic
// group-of-pictures (GOP) structure. It refines the coarse VBR model of
// Stream: the instantaneous demand now follows the I/P/B frame pattern of
// real encoders, which is the traffic shape a streaming buffer actually sees.
type VideoStream struct {
	// NominalRate is the long-run average bit rate.
	NominalRate units.BitRate
	// FrameRate is the display rate in frames per second.
	FrameRate float64
	// GOPLength is the number of frames per GOP (N, typically 12 or 15).
	GOPLength int
	// IPDistance is the distance between anchor (I or P) frames (M,
	// typically 3: two B frames between anchors).
	IPDistance int
	// WeightI, WeightP and WeightB are the relative encoded sizes of the
	// frame classes (typical ratios around 5 : 3 : 1).
	WeightI float64
	WeightP float64
	WeightB float64
	// Jitter is the relative standard deviation applied to every frame size
	// (scene-activity noise), in [0, 1).
	Jitter float64
	// WriteFraction is the share of the stream written to the device.
	WriteFraction float64
	// Seed makes the trace reproducible.
	Seed uint64
}

// NewVideoStream returns an MPEG-like stream with a 12-frame GOP (IBBPBBPBBPBB)
// at 25 frames per second, 5:3:1 frame weights and 20 % size jitter.
func NewVideoStream(rate units.BitRate, seed uint64) VideoStream {
	return VideoStream{
		NominalRate:   rate,
		FrameRate:     25,
		GOPLength:     12,
		IPDistance:    3,
		WeightI:       5,
		WeightP:       3,
		WeightB:       1,
		Jitter:        0.2,
		WriteFraction: 0.4,
		Seed:          seed,
	}
}

// Validate checks the stream description.
func (v VideoStream) Validate() error {
	var errs []error
	if !v.NominalRate.Positive() {
		errs = append(errs, errors.New("workload: video nominal rate must be positive"))
	}
	if v.FrameRate <= 0 {
		errs = append(errs, errors.New("workload: frame rate must be positive"))
	}
	if v.GOPLength < 1 {
		errs = append(errs, errors.New("workload: GOP length must be at least 1"))
	}
	if v.IPDistance < 1 || v.IPDistance > v.GOPLength {
		errs = append(errs, errors.New("workload: anchor distance must be in [1, GOP length]"))
	}
	if v.WeightI <= 0 || v.WeightP <= 0 || v.WeightB <= 0 {
		errs = append(errs, errors.New("workload: frame weights must be positive"))
	}
	if v.Jitter < 0 || v.Jitter >= 1 {
		errs = append(errs, errors.New("workload: jitter must be in [0, 1)"))
	}
	if v.WriteFraction < 0 || v.WriteFraction > 1 {
		errs = append(errs, errors.New("workload: write fraction must be in [0, 1]"))
	}
	return errors.Join(errs...)
}

// PeakRate bounds the largest instantaneous demand any trace generated from
// this stream can reach: the largest frame of any class that actually
// occurs in the GOP (its mean at the top of the jitter band) consumed over
// one frame interval. Weights are arbitrary — nothing forces I frames to be
// the largest class — so the bound maximises over the occurring classes.
// The realized peak of a generated trace is at most this bound, so
// admission checks against it are conservative but never unsafe.
func (v VideoStream) PeakRate() units.BitRate {
	meanI, meanP, meanB := v.meanFrameSizes()
	var largest units.Size
	for k := 0; k < v.GOPLength; k++ {
		var mean units.Size
		switch v.classOf(k) {
		case FrameI:
			mean = meanI
		case FrameP:
			mean = meanP
		default:
			mean = meanB
		}
		if mean > largest {
			largest = mean
		}
	}
	return units.BitPerSecond.Scale(largest.Scale(1+v.Jitter).Bits() * v.FrameRate)
}

// classOf returns the coding class of the frame at the given position within
// a GOP (position 0 is the I frame; every IPDistance-th frame is an anchor).
func (v VideoStream) classOf(positionInGOP int) FrameClass {
	if positionInGOP == 0 {
		return FrameI
	}
	if positionInGOP%v.IPDistance == 0 {
		return FrameP
	}
	return FrameB
}

// meanFrameSizes returns the mean encoded size per class such that the
// long-run average rate equals the nominal rate.
func (v VideoStream) meanFrameSizes() (i, p, b units.Size) {
	// Count frames per class in one GOP.
	var nI, nP, nB float64
	for k := 0; k < v.GOPLength; k++ {
		switch v.classOf(k) {
		case FrameI:
			nI++
		case FrameP:
			nP++
		default:
			nB++
		}
	}
	gopDuration := float64(v.GOPLength) / v.FrameRate
	gopBits := v.NominalRate.BitsPerSecond() * gopDuration
	unit := gopBits / (nI*v.WeightI + nP*v.WeightP + nB*v.WeightB)
	return units.Bit.Scale(unit * v.WeightI), units.Bit.Scale(unit * v.WeightP), units.Bit.Scale(unit * v.WeightB)
}

// GenerateTrace produces the frame sequence covering [0, horizon).
func (v VideoStream) GenerateTrace(horizon units.Duration) ([]Frame, error) {
	return v.AppendTrace(nil, horizon)
}

// AppendTrace appends the frame sequence covering [0, horizon) to dst and
// returns the extended slice, exactly as GenerateTrace would produce it.
// Passing a previous trace's slice truncated to zero length reuses its
// capacity, so seed-varied replicas regenerate their traces without
// steady-state allocations.
func (v VideoStream) AppendTrace(dst []Frame, horizon units.Duration) ([]Frame, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if !horizon.Positive() {
		return nil, errors.New("workload: horizon must be positive")
	}
	meanI, meanP, meanB := v.meanFrameSizes()
	rng := NewRng(v.Seed ^ 0x9e3779b97f4a7c15)
	frameInterval := units.Second.Scale(1 / v.FrameRate)
	// Defence against absurd horizon × frame-rate products: beyond this the
	// float-to-int conversion would overflow (or the allocation would take
	// the process down), so fail loudly instead.
	const maxFrames = 100_000_000
	if n := horizon.Seconds() * v.FrameRate; n > maxFrames {
		return nil, fmt.Errorf("workload: trace of %.3g frames exceeds the %d-frame generation bound", n, maxFrames)
	}
	total := int(horizon.Seconds() * v.FrameRate)
	frames := dst
	if frames == nil {
		frames = make([]Frame, 0, total)
	}
	for idx := 0; idx < total; idx++ {
		class := v.classOf(idx % v.GOPLength)
		var mean units.Size
		switch class {
		case FrameI:
			mean = meanI
		case FrameP:
			mean = meanP
		default:
			mean = meanB
		}
		// Symmetric jitter keeps the long-run mean on target.
		factor := 1 + v.Jitter*(2*rng.Float64()-1)
		size := mean.Scale(factor)
		if size < 8 {
			size = 8
		}
		frames = append(frames, Frame{
			Index:     idx,
			Timestamp: frameInterval.Scale(float64(idx)),
			Class:     class,
			Size:      size,
		})
	}
	return frames, nil
}

// VideoRatePattern samples the instantaneous demand of a video trace: within
// each frame interval the rate is the frame size divided by the interval.
type VideoRatePattern struct {
	stream        VideoStream
	frames        []Frame
	frameInterval units.Duration
	horizon       units.Duration
	// genHorizon is the horizon the trace was requested for (the realized
	// horizon above is quantized to whole frames); Reset regenerates over it.
	genHorizon units.Duration
	peak       units.BitRate
}

// NewVideoRatePattern builds a demand sampler covering the given horizon. The
// pattern repeats (wraps around) beyond the horizon, so simulations longer
// than the generated trace remain well defined.
func NewVideoRatePattern(v VideoStream, horizon units.Duration) (*VideoRatePattern, error) {
	frames, err := v.GenerateTrace(horizon)
	if err != nil {
		return nil, err
	}
	if len(frames) == 0 {
		return nil, errors.New("workload: horizon too short for a single frame")
	}
	p := &VideoRatePattern{
		stream:        v,
		frames:        frames,
		frameInterval: units.Second.Scale(1 / v.FrameRate),
		horizon:       units.Second.Scale(float64(len(frames)) / v.FrameRate),
		genHorizon:    horizon,
	}
	p.rescanPeak()
	return p, nil
}

// rescanPeak recomputes the realized peak demand over the current trace.
func (p *VideoRatePattern) rescanPeak() {
	p.peak = 0
	for _, f := range p.frames {
		if !p.frameInterval.Positive() {
			continue
		}
		r := units.BitPerSecond.Scale(f.Size.Bits() / p.frameInterval.Seconds())
		if r > p.peak {
			p.peak = r
		}
	}
}

// Reset regenerates the trace in place for the stream re-seeded with seed,
// reusing the existing frame storage, so the pattern ends up exactly as
// NewVideoRatePattern would build it for that seed — without allocating. It
// exists so batch replicas can reuse one pattern across seed-varied runs.
func (p *VideoRatePattern) Reset(seed uint64) error {
	p.stream.Seed = seed
	frames, err := p.stream.AppendTrace(p.frames[:0], p.genHorizon)
	if err != nil {
		return err
	}
	p.frames = frames
	p.horizon = units.Second.Scale(float64(len(frames)) / p.stream.FrameRate)
	p.rescanPeak()
	return nil
}

// RateAt returns the demand in effect at time t. The frame is derived from
// the same absolute frame count nextBoundary computes, so the boundary
// NextRateChange announces always starts the next frame: a boundary time k·Δ
// whose quotient by Δ rounds below k would otherwise sample frame k−1 for a
// whole frame interval.
func (p *VideoRatePattern) RateAt(t units.Duration) units.BitRate {
	if t < 0 {
		t = 0
	}
	interval := p.frameInterval.Seconds()
	k := math.Floor(t.Seconds() / interval)
	if (k+1)*interval <= t.Seconds() {
		k++
	}
	idx := int(k) % len(p.frames)
	return units.BitPerSecond.Scale(p.frames[idx].Size.Bits() / interval)
}

// PeakRate returns the largest instantaneous demand of the trace.
func (p *VideoRatePattern) PeakRate() units.BitRate { return p.peak }

// NextRateChange returns the earliest time strictly after t at which RateAt
// may return a different value: the next frame boundary. Boundaries are
// multiples of the frame interval even across the wrap-around, so
// event-driven integrators can step frame by frame.
func (p *VideoRatePattern) NextRateChange(t units.Duration) units.Duration {
	if t < 0 {
		t = 0
	}
	return nextBoundary(t, p.frameInterval.Seconds())
}

// AverageRate returns the long-run average demand of the trace.
func (p *VideoRatePattern) AverageRate() units.BitRate {
	var total units.Size
	for _, f := range p.frames {
		total = total.Add(f.Size)
	}
	return units.BitPerSecond.Scale(total.Bits() / p.horizon.Seconds())
}

// Frames exposes the generated trace (for analyses and reports).
func (p *VideoRatePattern) Frames() []Frame { return p.frames }
