package workload

import (
	"math"
	"testing"
)

// checkLogs runs logs over xs a block at a time, padding the last block
// with ones, and compares every result to math.Log bit for bit.
func checkLogs(t *testing.T, what string, xs []float64) {
	t.Helper()
	bad := 0
	for start := 0; start < len(xs); start += 2 * beBlock {
		var block [2 * beBlock]float64
		n := copy(block[:], xs[start:])
		for i := n; i < len(block); i++ {
			block[i] = 1
		}
		logs(&block)
		for i, x := range xs[start : start+n] {
			if want := math.Log(x); math.Float64bits(block[i]) != math.Float64bits(want) {
				if bad++; bad <= 5 {
					t.Errorf("%s: logs(%v = %#x) = %#x, math.Log gives %#x", what, x,
						math.Float64bits(x), math.Float64bits(block[i]), math.Float64bits(want))
				}
			}
		}
	}
	if bad > 5 {
		t.Errorf("%s: %d of %d results differ from math.Log", what, bad, len(xs))
	}
}

func TestLogsMatchMathLogOnSamplerDraws(t *testing.T) {
	n := 1 << 22
	if testing.Short() {
		n = 1 << 16
	}
	rng := NewRng(0x5eed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1 - rng.Float64()
	}
	checkLogs(t, "1-u", xs)
}

func TestLogsMatchMathLogAtDomainEnds(t *testing.T) {
	const k = 1 << 16
	small := make([]float64, 0, k)
	nearOne := make([]float64, 0, k)
	for i := 1; i <= k; i++ {
		small = append(small, float64(i)/(1<<53))         // the smallest 1-u values
		nearOne = append(nearOne, 1-float64(i-1)/(1<<53)) // 1-u for the smallest u
	}
	checkLogs(t, "k/2^53", small)
	checkLogs(t, "1-k/2^53", nearOne)
}

// The kernel, like math.Log on amd64, halves the fraction when it is not
// above sqrt(2)/2, so values at and around that boundary are where a lane
// that compared differently would show.
func TestLogsMatchMathLogAroundHalfSqrt2(t *testing.T) {
	const ulps = 2000
	var xs []float64
	for e := 0; e <= 53; e++ {
		c := math.Float64bits(math.Ldexp(math.Sqrt2/2, -e))
		for d := uint64(0); d <= 2*ulps; d++ {
			xs = append(xs, math.Float64frombits(c-ulps+d))
		}
	}
	checkLogs(t, "sqrt(2)/2 * 2^-e", xs)
}

// Positive finite bit patterns, subnormals included, are all in the kernel's
// domain. Within the sampler's domain either comparison at sqrt(2)/2 gives
// the same bits; of all binary scales, only at sqrt(2)/2 * 2^32 does a
// less-than test differ from math.Log's not-less-than, so sqrt(2)/2 at every
// scale pins the comparison.
func TestLogsMatchMathLogOnPositiveFinite(t *testing.T) {
	rng := NewRng(7)
	xs := make([]float64, 0, 1<<16)
	for len(xs) < cap(xs) {
		x := math.Float64frombits(rng.Uint64() >> 1)
		if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) {
			xs = append(xs, x)
		}
	}
	for e := -1074; e <= 1024; e++ {
		if x := math.Ldexp(math.Sqrt2/2, e); x > 0 && !math.IsInf(x, 0) {
			xs = append(xs, x)
		}
	}
	xs = append(xs, math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64, 1)
	checkLogs(t, "positive finite", xs)
}
