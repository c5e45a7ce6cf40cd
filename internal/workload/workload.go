// Package workload generates the streaming and best-effort traffic that
// drives the discrete-event simulator: constant- and variable-bit-rate stream
// patterns, the read/write mix of Table I, and a background best-effort
// request process standing in for operating-system and file-system activity.
//
// All generators are deterministic given a seed, so simulations are exactly
// reproducible.
package workload

import (
	"errors"
	"fmt"
	"math"

	"memstream/internal/units"
)

// Rng is a small, deterministic pseudo-random generator (SplitMix64). It is
// intentionally not cryptographic; it only has to be fast, seedable and
// well-distributed enough for workload generation.
type Rng struct {
	state uint64
}

// NewRng returns a generator seeded with the given value.
func NewRng(seed uint64) *Rng {
	return &Rng{state: seed}
}

// Seed rewinds the generator to the state NewRng(seed) would start from, so
// a reused generator replays exactly the sequence a fresh one would produce.
func (r *Rng) Seed(seed uint64) {
	r.state = seed
}

// Uint64 returns the next 64-bit value.
func (r *Rng) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rng) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rng) Exp(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Intn returns a uniform integer in [0, n).
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// StreamKind distinguishes constant- and variable-bit-rate streams.
type StreamKind int

// Stream kinds.
const (
	// CBR streams consume exactly the nominal rate at all times.
	CBR StreamKind = iota
	// VBR streams vary around the nominal rate segment by segment, as
	// compressed video does scene by scene.
	VBR
)

// Stream describes one streaming session.
type Stream struct {
	// Kind selects constant or variable bit rate.
	Kind StreamKind
	// NominalRate is the average consumption/production rate rs.
	NominalRate units.BitRate
	// WriteFraction is the share of traffic written to the device
	// (recording); the rest is read (playback).
	WriteFraction float64
	// SegmentLength is the duration over which a VBR stream holds one rate
	// (ignored for CBR).
	SegmentLength units.Duration
	// Variability is the relative half-range of VBR rate excursions: each
	// segment's rate is uniform in nominal*(1 ± Variability).
	Variability float64
	// Seed makes the VBR pattern reproducible.
	Seed uint64
}

// NewCBRStream returns a constant-bit-rate stream at the given rate with the
// Table I write share.
func NewCBRStream(rate units.BitRate) Stream {
	return Stream{Kind: CBR, NominalRate: rate, WriteFraction: 0.4}
}

// NewVBRStream returns a variable-bit-rate stream averaging the given rate,
// with two-second segments varying ±30 %.
func NewVBRStream(rate units.BitRate, seed uint64) Stream {
	return Stream{
		Kind:          VBR,
		NominalRate:   rate,
		WriteFraction: 0.4,
		SegmentLength: 2 * units.Second,
		Variability:   0.3,
		Seed:          seed,
	}
}

// PeakRate returns the highest instantaneous rate the stream can reach: the
// nominal rate for CBR, and the top of the variability band for VBR. Buffer
// controllers provision wake-up thresholds against this rate.
func (s Stream) PeakRate() units.BitRate {
	if s.Kind == VBR {
		return s.NominalRate.Scale(1 + s.Variability)
	}
	return s.NominalRate
}

// Validate checks the stream description.
func (s Stream) Validate() error {
	var errs []error
	if !s.NominalRate.Positive() {
		errs = append(errs, errors.New("workload: nominal rate must be positive"))
	}
	if s.WriteFraction < 0 || s.WriteFraction > 1 {
		errs = append(errs, errors.New("workload: write fraction must be in [0, 1]"))
	}
	if s.Kind == VBR {
		if !s.SegmentLength.Positive() {
			errs = append(errs, errors.New("workload: VBR streams need a positive segment length"))
		}
		if s.Variability < 0 || s.Variability >= 1 {
			errs = append(errs, errors.New("workload: variability must be in [0, 1)"))
		}
	}
	return errors.Join(errs...)
}

// RatePattern samples the instantaneous stream rate over time. It is safe to
// call with monotonically non-decreasing times.
type RatePattern struct {
	stream     Stream
	rng        *Rng
	segmentEnd units.Duration
	current    units.BitRate
}

// NewRatePattern builds a sampler for the stream.
func NewRatePattern(s Stream) (*RatePattern, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := &RatePattern{stream: s, rng: NewRng(s.Seed ^ 0xa5a5a5a5a5a5a5a5), current: s.NominalRate}
	if s.Kind == VBR {
		p.segmentEnd = 0 // force a draw on first use
	}
	return p, nil
}

// Reset rewinds the pattern to the state NewRatePattern would build for the
// same stream re-seeded with seed, without allocating: a reused pattern
// replays exactly the segment sequence a fresh one would produce. It exists
// so batch replicas can reuse one sampler across seed-varied runs.
func (p *RatePattern) Reset(seed uint64) {
	p.stream.Seed = seed
	p.rng.Seed(seed ^ 0xa5a5a5a5a5a5a5a5)
	p.segmentEnd = 0 // force a draw on first use, as NewRatePattern does
	p.current = p.stream.NominalRate
}

// PeakRate returns the highest rate the pattern can produce.
func (p *RatePattern) PeakRate() units.BitRate { return p.stream.PeakRate() }

// RateAt returns the stream rate in effect at time t.
func (p *RatePattern) RateAt(t units.Duration) units.BitRate {
	if p.stream.Kind == CBR {
		return p.stream.NominalRate
	}
	for t >= p.segmentEnd {
		spread := p.stream.Variability
		factor := 1 - spread + 2*spread*p.rng.Float64()
		p.current = p.stream.NominalRate.Scale(factor)
		p.segmentEnd = p.segmentEnd.Add(p.stream.SegmentLength)
	}
	return p.current
}

// AverageRate returns the long-run average rate of the stream.
func (p *RatePattern) AverageRate() units.BitRate { return p.stream.NominalRate }

// NextRateChange returns the earliest time strictly after t at which RateAt
// may return a different value: the next segment boundary for VBR, never for
// CBR. It lets event-driven integrators step exactly from segment to segment
// instead of slicing time.
func (p *RatePattern) NextRateChange(t units.Duration) units.Duration {
	if p.stream.Kind == CBR {
		return units.Duration(math.Inf(1))
	}
	return NextBoundary(t, p.stream.SegmentLength.Seconds())
}

// NextBoundary returns the first multiple of interval strictly after t. The
// strictness guard matters: k*interval can round to a float at or below t,
// and a "next" change that does not advance time would make event-driven
// integrators skip the boundary entirely.
func NextBoundary(t units.Duration, interval float64) units.Duration {
	k := math.Floor(t.Seconds()/interval) + 1
	next := units.Second.Scale(k * interval)
	if next <= t {
		next = units.Second.Scale((k + 1) * interval)
	}
	return next
}

// BestEffortRequest is one non-streaming (OS / file-system) request.
type BestEffortRequest struct {
	// Arrival is the request arrival time.
	Arrival units.Duration
	// Size is the amount of data moved.
	Size units.Size
	// Write reports whether the request writes to the device.
	Write bool
}

// BestEffortProcess generates background requests whose long-run service
// demand matches a target fraction of device-active time, as the paper's 5 %
// best-effort share does.
//
// Unlike the sequential stream, best-effort requests are random accesses: each
// one pays a positioning (seek) overhead before its transfer. The 5 % share is
// therefore mostly repositioning time, and the background data volume stays
// small compared to the stream — which is why the paper's lifetime equations
// ignore best-effort wear.
type BestEffortProcess struct {
	// TargetFraction is the share of wall-clock time the device should spend
	// serving best-effort traffic.
	TargetFraction float64
	// MeanSize is the mean request size.
	MeanSize units.Size
	// WriteFraction is the share of best-effort requests that write.
	WriteFraction float64
	// ServiceRate is the rate at which the device serves the requests
	// (the aggregate media rate).
	ServiceRate units.BitRate
	// PositioningTime is the per-request repositioning overhead paid before
	// the transfer (a random access, unlike the sequential stream).
	PositioningTime units.Duration
	// Seed makes the arrival pattern reproducible.
	Seed uint64
}

// NewBestEffortProcess returns a process matching the paper's assumptions:
// the given share of time, 4 KiB mean requests, half of them writes, and a
// 2 ms positioning overhead per request (the Table I seek time).
func NewBestEffortProcess(fraction float64, serviceRate units.BitRate, seed uint64) BestEffortProcess {
	return BestEffortProcess{
		TargetFraction:  fraction,
		MeanSize:        4 * units.KiB,
		WriteFraction:   0.5,
		ServiceRate:     serviceRate,
		PositioningTime: 2 * units.Millisecond,
		Seed:            seed,
	}
}

// ServiceTime returns the device-busy time one request of the given size
// costs: the positioning overhead plus the transfer at the service rate.
func (p BestEffortProcess) ServiceTime(size units.Size) units.Duration {
	return p.PositioningTime.Add(p.ServiceRate.TimeFor(size))
}

// Validate checks the process parameters.
func (p BestEffortProcess) Validate() error {
	var errs []error
	if p.TargetFraction < 0 || p.TargetFraction >= 1 {
		errs = append(errs, errors.New("workload: best-effort fraction must be in [0, 1)"))
	}
	if p.TargetFraction > 0 && !p.MeanSize.Positive() {
		errs = append(errs, errors.New("workload: best-effort requests need a positive mean size"))
	}
	if p.WriteFraction < 0 || p.WriteFraction > 1 {
		errs = append(errs, errors.New("workload: best-effort write fraction must be in [0, 1]"))
	}
	if p.TargetFraction > 0 && !p.ServiceRate.Positive() {
		errs = append(errs, errors.New("workload: best-effort service rate must be positive"))
	}
	if p.PositioningTime < 0 {
		errs = append(errs, errors.New("workload: best-effort positioning time must be non-negative"))
	}
	return errors.Join(errs...)
}

// MeanInterarrival returns the mean time between requests implied by the
// target fraction, mean size and service rate.
func (p BestEffortProcess) MeanInterarrival() (units.Duration, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.TargetFraction == 0 {
		return units.Duration(math.Inf(1)), nil
	}
	return p.ServiceTime(p.MeanSize).Scale(1 / p.TargetFraction), nil
}

// Generate produces all requests arriving in [0, horizon).
func (p BestEffortProcess) Generate(horizon units.Duration) ([]BestEffortRequest, error) {
	return p.AppendRequests(nil, horizon)
}

// AppendRequests appends all requests arriving in [0, horizon) to dst and
// returns the extended slice, exactly as Generate would produce them: the
// requests a BestEffortArrivals cursor reset to the same process and horizon
// yields, in order.
func (p BestEffortProcess) AppendRequests(dst []BestEffortRequest, horizon units.Duration) ([]BestEffortRequest, error) {
	var a BestEffortArrivals
	if err := a.Reset(p, horizon); err != nil {
		return nil, err
	}
	for req, ok := a.Peek(); ok; req, ok = a.Peek() {
		dst = append(dst, req)
		a.Pop()
	}
	return dst, nil
}

// BestEffortArrivals is a pull cursor over a best-effort process's requests
// arriving in [0, horizon): it draws the next request only when the pending
// one is consumed, so its memory stays constant however long the horizon.
// The zero value is an empty cursor.
type BestEffortArrivals struct {
	rng           Rng
	meanGap       float64 // mean inter-arrival time, seconds
	meanSize      float64 // mean request size, bits
	writeFraction float64
	horizon       units.Duration
	next          BestEffortRequest
	pending       bool
}

// Reset rewinds the cursor to the first request of p within [0, horizon),
// without allocating. A zero-fraction process or a non-positive horizon
// leaves it empty; an invalid process leaves it empty and is reported.
func (a *BestEffortArrivals) Reset(p BestEffortProcess, horizon units.Duration) error {
	a.pending = false
	mean, err := p.MeanInterarrival()
	if err != nil {
		return err
	}
	if p.TargetFraction == 0 || !horizon.Positive() {
		return nil
	}
	a.rng.Seed(p.Seed ^ 0x5bd1e9955bd1e995)
	a.meanGap = mean.Seconds()
	a.meanSize = p.MeanSize.Bits()
	a.writeFraction = p.WriteFraction
	a.horizon = horizon
	// The first arrival is one gap after time zero, so start from a
	// consumed request at zero: 0 + gap is exactly gap.
	a.next.Arrival = 0
	a.pending = true
	a.Pop()
	return nil
}

// Peek returns the pending request and true, or false once the cursor has
// passed the horizon.
func (a *BestEffortArrivals) Peek() (BestEffortRequest, bool) {
	return a.next, a.pending
}

// Pop consumes the pending request and draws the next one: its arrival one
// exponential gap later, then its size, then its write flag. Past the
// horizon the cursor empties; on an empty cursor Pop does nothing.
func (a *BestEffortArrivals) Pop() {
	if !a.pending {
		return
	}
	t := a.next.Arrival.Add(units.Second.Scale(a.rng.Exp(a.meanGap)))
	a.pending = t < a.horizon
	if !a.pending {
		return
	}
	size := units.Bit.Scale(a.rng.Exp(a.meanSize))
	if size < units.Size(512) {
		size = units.Size(512)
	}
	a.next = BestEffortRequest{
		Arrival: t,
		Size:    size,
		Write:   a.rng.Float64() < a.writeFraction,
	}
}

// PlaybackCalendar expands a daily usage pattern (hours of streaming per day)
// into per-year totals, matching the lifetime model's workload accounting.
type PlaybackCalendar struct {
	// HoursPerDay is the daily streaming time.
	HoursPerDay float64
	// DaysPerYear is the number of active days per year (365 in the paper).
	DaysPerYear float64
}

// DefaultCalendar returns the paper's eight-hours-every-day calendar.
func DefaultCalendar() PlaybackCalendar {
	return PlaybackCalendar{HoursPerDay: 8, DaysPerYear: 365}
}

// Validate checks the calendar.
func (c PlaybackCalendar) Validate() error {
	if c.HoursPerDay <= 0 || c.HoursPerDay > 24 {
		return errors.New("workload: hours per day must be in (0, 24]")
	}
	if c.DaysPerYear <= 0 || c.DaysPerYear > 366 {
		return errors.New("workload: days per year must be in (0, 366]")
	}
	return nil
}

// SecondsPerYear returns the total streamed seconds per year.
func (c PlaybackCalendar) SecondsPerYear() units.Duration {
	return units.Hour.Scale(c.HoursPerDay * c.DaysPerYear)
}

// String summarises the calendar.
func (c PlaybackCalendar) String() string {
	return fmt.Sprintf("%.3g h/day, %.3g days/year", c.HoursPerDay, c.DaysPerYear)
}
